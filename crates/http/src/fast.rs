//! Allocation-free HTTP/1.1 parsing: the one reader every component
//! uses — the fw-serve hot path, the [`crate::server`] loop behind the
//! simulated cloud ingress, and the [`crate::client`] the prober and C2
//! scanner speak.
//!
//! [`read_request_fast`] and [`read_response_fast`] parse in place over
//! a reusable per-connection [`Scratch`] buffer:
//!
//! - the head terminator is found with the SWAR `memchr`-anchored
//!   scanner from `fw-types::memmem`, scanning each byte once even when
//!   the head arrives across several reads;
//! - the start line and headers are recorded as *spans* into the
//!   receive buffer instead of `String`s — the only per-message heap
//!   traffic is amortized growth of buffers that live as long as the
//!   connection;
//! - consumed messages are compacted lazily at the next read, so
//!   keep-alive connections reuse one buffer for their whole lifetime
//!   and read-ahead is carried between messages: pipelined messages are
//!   not dropped.
//!
//! The grammar, size limits and error messages are those of a plain
//! scalar reader that lives in `tests/scalar/`; the property tests in
//! `tests/proptest_http.rs` pin both readers to the same result on
//! valid, garbage, truncated and size-capped input. Callers that want
//! owned messages materialize them with [`Scratch::to_request`] /
//! [`Scratch::to_response`].
//!
//! The render helpers at the bottom produce output byte-identical to
//! [`crate::parse::write_response`] / [`crate::parse::write_request`]
//! for the message shapes the serving plane emits, which is what lets
//! fw-serve cache fully rendered wire images and keep its
//! response-stream digest unchanged.

use crate::parse::{HttpError, Limits};
use crate::types::{reason_phrase, HeaderMap, Method, Request, Response};
use fw_net::Connection;
use fw_types::memmem::find_subsequence;

/// Per-connection reusable parse/render state. One `Scratch` serves one
/// connection at a time; a pooled serving worker owns one and reuses it
/// across every connection it accepts, and the client parks one with
/// each keep-alive connection.
pub struct Scratch {
    /// Rolling receive buffer. `buf[..start]` is the previous message,
    /// consumed lazily at the next read; spans index into `buf`.
    buf: Vec<u8>,
    /// Bytes of the previous message to drop at the next read call.
    start: usize,
    /// Absolute offset up to which the head-terminator scan has
    /// advanced (so each byte is scanned once across fills).
    scanned: usize,
    /// Header spans of the current message: (name, value) ranges.
    hdrs: Vec<(u32, u32, u32, u32)>,
    /// Decoded chunked body (length-delimited bodies stay in `buf`).
    chunked_body: Vec<u8>,
    /// Staging area for transport reads.
    chunk: Box<[u8; 8 * 1024]>,
    /// Render buffer for outgoing messages.
    pub out: Vec<u8>,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch {
            buf: Vec::with_capacity(8 * 1024),
            start: 0,
            scanned: 0,
            hdrs: Vec::with_capacity(16),
            chunked_body: Vec::new(),
            chunk: Box::new([0u8; 8 * 1024]),
            out: Vec::new(),
        }
    }

    /// Forget any buffered or half-parsed state (fresh connection).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        self.hdrs.clear();
        self.chunked_body.clear();
        self.out.clear();
    }

    /// Drop the previous message's bytes and restart span bookkeeping.
    fn begin_message(&mut self) {
        if self.start > 0 {
            if self.start == self.buf.len() {
                self.buf.clear();
            } else {
                // Pipelined leftover: slide it to the front.
                self.buf.drain(..self.start);
            }
            self.start = 0;
        }
        self.scanned = 0;
        self.hdrs.clear();
        self.chunked_body.clear();
    }

    /// Pull more bytes from the transport. `Ok(false)` on EOF.
    fn fill(&mut self, conn: &mut dyn Connection) -> Result<bool, HttpError> {
        let n = conn.read(&mut self.chunk[..])?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(true)
    }

    /// Resolve a span against the receive buffer.
    fn span_str(&self, (lo, hi): (u32, u32)) -> &str {
        std::str::from_utf8(&self.buf[lo as usize..hi as usize]).unwrap_or("")
    }

    /// The first `count` header spans, resolved, in wire order.
    fn header_map(&self, count: u32) -> HeaderMap {
        let mut headers = HeaderMap::new();
        for &(nl, nh, vl, vh) in &self.hdrs[..count as usize] {
            headers.insert(self.span_str((nl, nh)), self.span_str((vl, vh)));
        }
        headers
    }

    /// A body span, or the decoded chunked body.
    fn body_bytes(&self, body: Body) -> &[u8] {
        match body {
            Body::Chunked => &self.chunked_body,
            Body::Span(lo, hi) => &self.buf[lo as usize..hi as usize],
        }
    }

    /// The request target (path + query) of `req`.
    pub fn target(&self, req: &FastRequest) -> &str {
        self.span_str(req.target)
    }

    /// `req` as an owned [`Request`] (headers trimmed, in wire order).
    pub fn to_request(&self, req: &FastRequest) -> Request {
        Request {
            method: req.method,
            target: self.target(req).to_string(),
            headers: self.header_map(req.hdr_count),
            body: self.body_bytes(req.body).to_vec(),
        }
    }

    /// `resp` as an owned [`Response`] (headers trimmed, in wire order).
    pub fn to_response(&self, resp: &FastResponse) -> Response {
        Response {
            status: resp.status,
            reason: self.span_str(resp.reason).to_string(),
            headers: self.header_map(resp.hdr_count),
            body: self.body_bytes(resp.body).to_vec(),
        }
    }
}

/// Where a parsed message's body lives in its [`Scratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// A range of the receive buffer.
    Span(u32, u32),
    /// The scratch's decoded chunked body.
    Chunked,
}

/// A parsed request whose strings live in the [`Scratch`] it was read
/// into. Resolved with the `Scratch` accessors; holding only plain
/// offsets keeps the borrow checker out of the serve loop (the scratch
/// can render the response while the request is still alive).
#[derive(Debug, Clone, Copy)]
pub struct FastRequest {
    pub method: Method,
    target: (u32, u32),
    hdr_count: u32,
    body: Body,
    /// `Connection: close` was requested.
    pub close: bool,
}

/// A parsed response whose reason, headers and body live in the
/// [`Scratch`] it was read into (see [`Scratch::to_response`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastResponse {
    pub status: u16,
    reason: (u32, u32),
    hdr_count: u32,
    body: Body,
}

/// Span of subslice `s` inside the buffer starting at `base`.
fn span(base: *const u8, s: &str) -> (u32, u32) {
    let off = s.as_ptr() as usize - base as usize;
    (off as u32, (off + s.len()) as u32)
}

/// Read until the head terminator `\r\n\r\n`; returns the offset one
/// past it.
fn read_head(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<usize, HttpError> {
    loop {
        // Re-scan a 3-byte overlap so a terminator split across fills
        // is still found, then remember how far we got.
        let from = scratch.scanned.saturating_sub(3);
        if let Some(rel) = find_subsequence(&scratch.buf[from..], b"\r\n\r\n") {
            let pos = from + rel;
            if pos + 4 > limits.max_head {
                return Err(HttpError::TooLarge("head"));
            }
            return Ok(pos + 4);
        }
        scratch.scanned = scratch.buf.len();
        if scratch.buf.len() > limits.max_head {
            return Err(HttpError::TooLarge("head"));
        }
        if !scratch.fill(conn)? {
            if scratch.buf.is_empty() {
                return Err(HttpError::Eof);
            }
            return Err(HttpError::Parse("eof inside head"));
        }
    }
}

/// What a header block says about framing and connection reuse.
struct HeaderFacts<'h> {
    /// First `Content-Length` value; parsed only if the body framing
    /// needs it, so a malformed one is ignored wherever it is unused.
    content_length: Option<&'h str>,
    chunked: bool,
    close: bool,
}

/// Record the header lines as spans into `hdrs`. Each line is
/// `name:value` with a non-empty, space-free name, both sides trimmed;
/// the first empty line ends the block. Line splitting follows
/// `str::lines` (splits on '\n', strips one trailing '\r'), so LF-only
/// endings are tolerated inside the head.
fn parse_headers<'h>(
    lines: std::str::Lines<'h>,
    base: *const u8,
    hdrs: &mut Vec<(u32, u32, u32, u32)>,
) -> Result<HeaderFacts<'h>, HttpError> {
    let mut facts = HeaderFacts {
        content_length: None,
        chunked: false,
        close: false,
    };
    let has_token = |value: &str, token: &str| {
        value
            .split(',')
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    };
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Parse("header missing colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Parse("bad header name"));
        }
        let (name, value) = (name.trim(), value.trim());
        let (nl, nh) = span(base, name);
        let (vl, vh) = span(base, value);
        hdrs.push((nl, nh, vl, vh));
        // First-match / any-token semantics of `HeaderMap::get` and
        // `HeaderMap::contains_token`.
        if facts.content_length.is_none() && name.eq_ignore_ascii_case("content-length") {
            facts.content_length = Some(value);
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            facts.chunked |= has_token(value, "chunked");
        }
        if name.eq_ignore_ascii_case("connection") {
            facts.close |= has_token(value, "close");
        }
    }
    Ok(facts)
}

/// How a message body is delimited.
enum Framing {
    Empty,
    Length(usize),
    Chunked,
    ToEof,
}

/// Framing from the headers: chunked wins over `Content-Length`;
/// `unframed` applies when neither is present.
fn header_framing(facts: &HeaderFacts<'_>, unframed: Framing) -> Result<Framing, HttpError> {
    if facts.chunked {
        return Ok(Framing::Chunked);
    }
    match facts.content_length {
        Some(v) => v
            .parse()
            .map(Framing::Length)
            .map_err(|_| HttpError::Parse("bad content-length")),
        None => Ok(unframed),
    }
}

/// Consume the body that starts at `head_end` and mark the message's
/// end for the next read.
fn read_body(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    head_end: usize,
    framing: Framing,
    limits: &Limits,
) -> Result<Body, HttpError> {
    let end = match framing {
        Framing::Empty => head_end,
        Framing::Length(n) => {
            if n > limits.max_body {
                return Err(HttpError::TooLarge("body"));
            }
            while scratch.buf.len() < head_end + n {
                if !scratch.fill(conn)? {
                    return Err(HttpError::Parse("eof inside body"));
                }
            }
            head_end + n
        }
        Framing::Chunked => {
            scratch.start = read_chunked_into(conn, scratch, head_end, limits)?;
            return Ok(Body::Chunked);
        }
        Framing::ToEof => {
            loop {
                if scratch.buf.len() - head_end > limits.max_body {
                    return Err(HttpError::TooLarge("body"));
                }
                if !scratch.fill(conn)? {
                    break;
                }
            }
            scratch.buf.len()
        }
    };
    scratch.start = end;
    Ok(Body::Span(head_end as u32, end as u32))
}

/// Read one request in place (server side).
pub fn read_request_fast(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<FastRequest, HttpError> {
    scratch.begin_message();
    let head_end = read_head(conn, scratch, limits)?;

    // The whole head must be UTF-8. `buf` and `hdrs` are disjoint
    // fields, so header spans can be pushed while the head is borrowed.
    let Scratch { buf, hdrs, .. } = &mut *scratch;
    let base = buf.as_ptr();
    let head_str =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpError::Parse("non-utf8 head"))?;
    let mut lines = head_str.lines();
    let request_line = lines.next().ok_or(HttpError::Parse("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::Parse("bad method"))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/') || *t == "*")
        .ok_or(HttpError::Parse("bad target"))?;
    let target = span(base, target);
    let version = parts.next().ok_or(HttpError::Parse("missing version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Parse("unsupported version"));
    }
    let facts = parse_headers(lines, base, hdrs)?;
    let framing = header_framing(&facts, Framing::Empty)?;
    let (close, hdr_count) = (facts.close, hdrs.len() as u32);

    let body = read_body(conn, scratch, head_end, framing, limits)?;
    fw_obs::counter_inc!("fw.http.parse.req");
    Ok(FastRequest {
        method,
        target,
        hdr_count,
        body,
        close,
    })
}

/// Read one response in place (client side). `head_request` marks the
/// answer to a HEAD request, which carries no body whatever its
/// headers say; so do 204 and 304. Otherwise the body is chunked,
/// `Content-Length`-delimited, or runs to EOF.
pub fn read_response_fast(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
    head_request: bool,
) -> Result<FastResponse, HttpError> {
    scratch.begin_message();
    let head_end = read_head(conn, scratch, limits)?;

    let Scratch { buf, hdrs, .. } = &mut *scratch;
    let base = buf.as_ptr();
    let head_str =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpError::Parse("non-utf8 head"))?;
    let mut lines = head_str.lines();
    let status_line = lines.next().ok_or(HttpError::Parse("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Parse("bad status version"));
    }
    let status: u16 = parts
        .next()
        .ok_or(HttpError::Parse("missing status code"))?
        .parse()
        .map_err(|_| HttpError::Parse("bad status code"))?;
    if !(100..600).contains(&status) {
        return Err(HttpError::Parse("status code out of range"));
    }
    let reason = parts.next().map_or((0, 0), |r| span(base, r));
    let facts = parse_headers(lines, base, hdrs)?;
    let framing = if head_request || status == 204 || status == 304 {
        Framing::Empty
    } else {
        header_framing(&facts, Framing::ToEof)?
    };
    let hdr_count = hdrs.len() as u32;

    let body = read_body(conn, scratch, head_end, framing, limits)?;
    fw_obs::counter_inc!("fw.http.parse.resp");
    Ok(FastResponse {
        status,
        reason,
        hdr_count,
        body,
    })
}

/// Decode a chunked body starting at `cursor` into
/// `scratch.chunked_body` (size lines up to 128 bytes, extensions
/// ignored, trailer lines up to 1 KiB skipped). Returns the buffer
/// offset one past the terminating CRLF.
fn read_chunked_into(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    mut cursor: usize,
    limits: &Limits,
) -> Result<usize, HttpError> {
    loop {
        let line = read_line_at(conn, scratch, &mut cursor, 128)?;
        let size_str = scratch
            .span_str(line)
            .split(';')
            .next()
            .unwrap_or("")
            .trim();
        let size =
            usize::from_str_radix(size_str, 16).map_err(|_| HttpError::Parse("bad chunk size"))?;
        if scratch.chunked_body.len() + size > limits.max_body {
            return Err(HttpError::TooLarge("chunked body"));
        }
        if size == 0 {
            // Trailer section: lines until the empty line.
            loop {
                let t = read_line_at(conn, scratch, &mut cursor, 1024)?;
                if t.0 == t.1 {
                    return Ok(cursor);
                }
            }
        }
        while scratch.buf.len() < cursor + size {
            if !scratch.fill(conn)? {
                return Err(HttpError::Parse("eof inside body"));
            }
        }
        // Split borrow: data lives in `buf`, accumulates in `chunked_body`.
        let Scratch {
            buf, chunked_body, ..
        } = scratch;
        chunked_body.extend_from_slice(&buf[cursor..cursor + size]);
        cursor += size;
        let crlf = read_line_at(conn, scratch, &mut cursor, 2)?;
        if crlf.0 != crlf.1 {
            return Err(HttpError::Parse("missing chunk crlf"));
        }
    }
}

/// Read one CRLF-terminated line starting at `*cursor`; returns the
/// line's span (terminator excluded) and advances the cursor past it.
fn read_line_at(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    cursor: &mut usize,
    max: usize,
) -> Result<(u32, u32), HttpError> {
    let mut scanned = *cursor;
    loop {
        let from = scanned.saturating_sub(1).max(*cursor);
        if let Some(rel) = find_subsequence(&scratch.buf[from..], b"\r\n") {
            let pos = from + rel;
            std::str::from_utf8(&scratch.buf[*cursor..pos])
                .map_err(|_| HttpError::Parse("non-utf8 line"))?;
            let lo = *cursor as u32;
            *cursor = pos + 2;
            return Ok((lo, pos as u32));
        }
        scanned = scratch.buf.len();
        if scratch.buf.len() - *cursor > max + 2 {
            return Err(HttpError::TooLarge("line"));
        }
        if !scratch.fill(conn)? {
            return Err(HttpError::Parse("eof inside line"));
        }
    }
}

/// Append a decimal integer without going through `format!`.
fn push_uint(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Render a full response wire image: byte-identical to
/// [`crate::parse::write_response`] of a `Response::with_body(status,
/// content_type, body)`, with `Connection: close` set after the content
/// type when `close` is. Returns the head length (the body is
/// `out[head_len..]`).
pub fn render_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    close: bool,
    body: &[u8],
) -> usize {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    if close {
        out.extend_from_slice(b"\r\nConnection: close");
    }
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_uint(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    let head_len = out.len();
    out.extend_from_slice(body);
    head_len
}

/// Render a bare-status response (no content-type header), matching
/// [`crate::parse::write_response`] of `Response::new(status)`.
pub fn render_status(out: &mut Vec<u8>, status: u16) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: 0\r\n\r\n");
}

/// Render a body-less GET, matching [`crate::parse::write_request`] of
/// `Request::get(target, host)`.
pub fn render_get(out: &mut Vec<u8>, target: &str, host: &str) {
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{write_request, write_response};
    use fw_net::pipe_pair;

    fn pair() -> (fw_net::PipeConn, fw_net::PipeConn) {
        pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        )
    }

    /// Everything the peer wrote until it shut down.
    fn drain(conn: &mut fw_net::PipeConn) -> Vec<u8> {
        let mut raw = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match conn.read(&mut buf).unwrap() {
                0 => return raw,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
    }

    /// Parse `bytes` as one response from a closed pipe.
    fn response_of(bytes: &[u8], limits: &Limits, head: bool) -> Result<Response, HttpError> {
        let (mut a, mut b) = pair();
        a.write_all(bytes).unwrap();
        a.shutdown_write();
        let mut scratch = Scratch::new();
        read_response_fast(&mut b, &mut scratch, limits, head).map(|r| scratch.to_response(&r))
    }

    #[test]
    fn fast_request_roundtrip_and_keepalive_reuse() {
        let (mut a, mut b) = pair();
        let mut scratch = Scratch::new();
        for i in 0..3 {
            let target = format!("/v1/verdict/fn-{i}.fcapp.run?probe=1");
            let sent = Request::get(&target, "api.faaswild.sim");
            write_request(&mut a, &sent).unwrap();
            let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
            assert_eq!(scratch.target(&req), target);
            assert!(!req.close);
            assert_eq!(scratch.to_request(&req), sent);
        }
    }

    #[test]
    fn fast_request_reads_content_length_body() {
        let (mut a, mut b) = pair();
        let mut sent = Request::get("/ingest", "h.example");
        sent.method = Method::Post;
        sent.body = b"payload".to_vec();
        write_request(&mut a, &sent).unwrap();
        let mut scratch = Scratch::new();
        let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(scratch.to_request(&req).body, b"payload");
    }

    #[test]
    fn fast_request_decodes_chunked_body() {
        let (mut a, mut b) = pair();
        a.write_all(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-T: t\r\n\r\n",
        )
        .unwrap();
        let mut scratch = Scratch::new();
        let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(scratch.to_request(&req).body, b"hello");
    }

    #[test]
    fn fast_request_connection_close_token() {
        let (mut a, mut b) = pair();
        a.write_all(b"GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n")
            .unwrap();
        let mut scratch = Scratch::new();
        let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert!(req.close);
    }

    #[test]
    fn pipelined_requests_are_not_dropped() {
        let (mut a, mut b) = pair();
        a.write_all(b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n")
            .unwrap();
        a.shutdown_write();
        let mut scratch = Scratch::new();
        let r1 = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(scratch.target(&r1), "/one");
        let r2 = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(scratch.target(&r2), "/two");
        assert!(matches!(
            read_request_fast(&mut b, &mut scratch, &Limits::default()),
            Err(HttpError::Eof)
        ));
    }

    #[test]
    fn oversized_head_rejected() {
        let (mut a, mut b) = pair();
        let limits = Limits {
            max_head: 128,
            max_body: 1024,
        };
        let writer = std::thread::spawn(move || {
            let _ = a.write_all(b"GET / HTTP/1.1\r\n");
            for _ in 0..64 {
                if a.write_all(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n")
                    .is_err()
                {
                    return;
                }
            }
            let _ = a.write_all(b"\r\n");
        });
        let mut scratch = Scratch::new();
        let err = read_request_fast(&mut b, &mut scratch, &limits).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge("head")), "{err:?}");
        drop(b);
        let _ = writer.join();
    }

    #[test]
    fn fast_request_malformed_inputs_are_parse_errors() {
        let cases: &[(&[u8], &str)] = &[
            (b"NOTAMETHOD / HTTP/1.1\r\n\r\n", "bad method"),
            (b"GET noslash HTTP/1.1\r\n\r\n", "bad target"),
            (b"GET / HTTP/2.9\r\n\r\n", "unsupported version"),
            (
                b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n",
                "bad header name",
            ),
            (
                b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
                "header missing colon",
            ),
        ];
        for (case, msg) in cases {
            let (mut a, mut b) = pair();
            a.write_all(case).unwrap();
            a.shutdown_write();
            let mut scratch = Scratch::new();
            let err = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap_err();
            match err {
                HttpError::Parse(m) => assert_eq!(m, *msg, "{case:?}"),
                other => panic!("{case:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_before_any_bytes_is_eof() {
        let (a, mut b) = pair();
        drop(a);
        let mut scratch = Scratch::new();
        let err = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Eof));
    }

    #[test]
    fn render_response_matches_scalar_writer() {
        for close in [false, true] {
            let (mut a, mut b) = pair();
            let mut resp = Response::json(200, "{\"ok\":true}");
            if close {
                resp.headers.set("Connection", "close");
            }
            write_response(&mut a, &resp).unwrap();
            a.shutdown_write();
            let mut out = Vec::new();
            let head_len =
                render_response(&mut out, 200, "application/json", close, b"{\"ok\":true}");
            assert_eq!(out, drain(&mut b), "close={close}");
            assert_eq!(&out[head_len..], b"{\"ok\":true}");
        }
    }

    #[test]
    fn render_status_matches_scalar_writer() {
        let (mut a, mut b) = pair();
        write_response(&mut a, &Response::new(400)).unwrap();
        a.shutdown_write();
        let mut out = Vec::new();
        render_status(&mut out, 400);
        assert_eq!(out, drain(&mut b));
    }

    #[test]
    fn render_get_matches_scalar_writer() {
        let (mut a, mut b) = pair();
        write_request(&mut a, &Request::get("/v1/status", "api.faaswild.sim")).unwrap();
        a.shutdown_write();
        let mut out = Vec::new();
        render_get(&mut out, "/v1/status", "api.faaswild.sim");
        assert_eq!(out, drain(&mut b));
    }

    #[test]
    fn fast_response_roundtrips_over_keepalive() {
        let (mut a, mut b) = pair();
        let first = Response::json(404, "{\"error\":\"nope\"}");
        let second = Response::html(200, "<html>hi</html>");
        write_response(&mut a, &first).unwrap();
        write_response(&mut a, &second).unwrap();
        let mut scratch = Scratch::new();
        for sent in [first, second] {
            let resp = read_response_fast(&mut b, &mut scratch, &Limits::default(), false).unwrap();
            let got = scratch.to_response(&resp);
            assert_eq!(got.status, sent.status);
            assert_eq!(got.reason, sent.reason);
            assert_eq!(got.body, sent.body);
            assert_eq!(
                got.headers.get("content-type"),
                sent.headers.get("content-type")
            );
        }
    }

    #[test]
    fn response_body_to_eof() {
        let got = response_of(
            b"HTTP/1.1 200 OK\r\nX-No-Length: 1\r\n\r\nstreamed until close",
            &Limits::default(),
            false,
        )
        .unwrap();
        assert_eq!(got.body_text(), "streamed until close");
    }

    #[test]
    fn head_and_bodiless_statuses_ignore_framing_headers() {
        let got = response_of(
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n",
            &Limits::default(),
            true,
        )
        .unwrap();
        assert!(got.body.is_empty());
        // A malformed Content-Length is never parsed where the body
        // framing does not use it.
        let cases: [(&[u8], &[u8]); 3] = [
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: abc\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                b"hello",
            ),
            (b"HTTP/1.1 204 No Content\r\nContent-Length: abc\r\n\r\n", b""),
            (b"HTTP/1.1 304 Not Modified\r\nContent-Length: -1\r\n\r\n", b""),
        ];
        for (wire, body) in cases {
            let got = response_of(wire, &Limits::default(), false).unwrap();
            assert_eq!(got.body, body, "{got:?}");
        }
        assert!(matches!(
            response_of(
                b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
                &Limits::default(),
                false
            ),
            Err(HttpError::Parse("bad content-length"))
        ));
    }

    #[test]
    fn oversized_body_rejected() {
        let limits = Limits {
            max_head: 1024,
            max_body: 10,
        };
        let err = response_of(
            b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n0123456789X",
            &limits,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::TooLarge("body")));
    }

    #[test]
    fn bad_status_codes_rejected() {
        for line in [
            "HTTP/1.1 99 Low\r\n\r\n",
            "HTTP/1.1 999 High\r\n\r\n",
            "HTTP/1.1 abc X\r\n\r\n",
        ] {
            assert!(matches!(
                response_of(line.as_bytes(), &Limits::default(), false),
                Err(HttpError::Parse(_))
            ));
        }
    }

    #[test]
    fn chunked_with_extension_and_trailer() {
        let got = response_of(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\n",
            &Limits::default(),
            false,
        )
        .unwrap();
        assert_eq!(got.body_text(), "hello");
        assert!(got.headers.contains_token("transfer-encoding", "chunked"));
    }
}
