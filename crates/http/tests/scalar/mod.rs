//! The scalar reference reader: the equivalence oracle the property
//! tests hold `fw_http::fast` to.
//!
//! A straightforward incremental reader — per-message buffer, owned
//! strings, every byte re-scanned per fill — that defines the accepted
//! grammar, the size limits and the error variant and message for every
//! malformed input. It lives here because nothing outside the tests
//! reads HTTP with it. `write_response_chunked` is the only producer of
//! chunked responses, which the serializers in `fw_http::parse` never
//! emit.

use bytes::{BufMut, BytesMut};
use fw_http::parse::{HttpError, Limits};
use fw_http::types::{HeaderMap, Method, Request, Response};
use fw_net::Connection;

/// Buffered reader over a connection.
pub struct BufConn<'c> {
    conn: &'c mut dyn Connection,
    buf: BytesMut,
}

impl<'c> BufConn<'c> {
    pub fn new(conn: &'c mut dyn Connection) -> BufConn<'c> {
        BufConn {
            conn,
            buf: BytesMut::with_capacity(8 * 1024),
        }
    }

    /// Fill the buffer with at least one more byte. `Ok(false)` on EOF.
    fn fill(&mut self) -> Result<bool, HttpError> {
        let mut chunk = [0u8; 8 * 1024];
        let n = self.conn.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.put_slice(&chunk[..n]);
        Ok(true)
    }

    /// Read bytes until the head terminator `\r\n\r\n` (inclusive).
    fn read_head(&mut self, max_head: usize) -> Result<Vec<u8>, HttpError> {
        loop {
            if let Some(pos) = find_subsequence(&self.buf, b"\r\n\r\n") {
                if pos + 4 > max_head {
                    return Err(HttpError::TooLarge("head"));
                }
                let head = self.buf.split_to(pos + 4);
                return Ok(head.to_vec());
            }
            if self.buf.len() > max_head {
                return Err(HttpError::TooLarge("head"));
            }
            if !self.fill()? {
                if self.buf.is_empty() {
                    return Err(HttpError::Eof);
                }
                return Err(HttpError::Parse("eof inside head"));
            }
        }
    }

    /// Read exactly `n` body bytes.
    fn read_body_exact(&mut self, n: usize, max_body: usize) -> Result<Vec<u8>, HttpError> {
        if n > max_body {
            return Err(HttpError::TooLarge("body"));
        }
        while self.buf.len() < n {
            if !self.fill()? {
                return Err(HttpError::Parse("eof inside body"));
            }
        }
        Ok(self.buf.split_to(n).to_vec())
    }

    /// Read until EOF (response without a length).
    fn read_body_to_eof(&mut self, max_body: usize) -> Result<Vec<u8>, HttpError> {
        loop {
            if self.buf.len() > max_body {
                return Err(HttpError::TooLarge("body"));
            }
            match self.fill() {
                Ok(true) => continue,
                Ok(false) => break,
                // A reset after data counts as truncation; surface what we
                // have if the error is a clean-ish close, otherwise error.
                Err(e) => return Err(e),
            }
        }
        Ok(self.buf.split_to(self.buf.len()).to_vec())
    }

    /// Decode a chunked body.
    fn read_body_chunked(&mut self, max_body: usize) -> Result<Vec<u8>, HttpError> {
        let mut out = Vec::new();
        loop {
            let line = self.read_line(128)?;
            let size_str = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| HttpError::Parse("bad chunk size"))?;
            if out.len() + size > max_body {
                return Err(HttpError::TooLarge("chunked body"));
            }
            if size == 0 {
                // Trailer section: read lines until the empty line.
                loop {
                    let t = self.read_line(1024)?;
                    if t.is_empty() {
                        return Ok(out);
                    }
                }
            }
            let data = self.read_body_exact(size, max_body)?;
            out.extend_from_slice(&data);
            let crlf = self.read_line(2)?;
            if !crlf.is_empty() {
                return Err(HttpError::Parse("missing chunk crlf"));
            }
        }
    }

    /// Read one CRLF-terminated line (without the terminator).
    fn read_line(&mut self, max: usize) -> Result<String, HttpError> {
        loop {
            if let Some(pos) = find_subsequence(&self.buf, b"\r\n") {
                let line = self.buf.split_to(pos + 2);
                let s = std::str::from_utf8(&line[..pos])
                    .map_err(|_| HttpError::Parse("non-utf8 line"))?;
                return Ok(s.to_string());
            }
            if self.buf.len() > max + 2 {
                return Err(HttpError::TooLarge("line"));
            }
            if !self.fill()? {
                return Err(HttpError::Parse("eof inside line"));
            }
        }
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_headers(lines: &mut std::str::Lines<'_>) -> Result<HeaderMap, HttpError> {
    let mut headers = HeaderMap::new();
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
        headers.insert(name.trim().to_string(), value.trim().to_string());
    }
    Ok(headers)
}

fn body_length(headers: &HeaderMap) -> Result<Option<usize>, HttpError> {
    match headers.get("content-length") {
        Some(v) => {
            let n: usize = v
                .trim()
                .parse()
                .map_err(|_| HttpError::Parse("bad content-length"))?;
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

fn is_chunked(headers: &HeaderMap) -> bool {
    headers.contains_token("transfer-encoding", "chunked")
}

/// Read one request from the connection (server side).
pub fn read_request(conn: &mut dyn Connection, limits: &Limits) -> Result<Request, HttpError> {
    let mut buf = BufConn::new(conn);
    let head = buf.read_head(limits.max_head)?;
    let head_str = std::str::from_utf8(&head).map_err(|_| HttpError::Parse("non-utf8 head"))?;
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
        .ok_or(HttpError::Parse("bad target"))?
        .to_string();
    let version = parts.next().ok_or(HttpError::Parse("missing version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Parse("unsupported version"));
    }
    let headers = parse_headers(&mut lines)?;
    let body = if is_chunked(&headers) {
        buf.read_body_chunked(limits.max_body)?
    } else {
        match body_length(&headers)? {
            Some(n) => buf.read_body_exact(n, limits.max_body)?,
            None => Vec::new(),
        }
    };
    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// Read one response from the connection (client side).
///
/// `head_request` suppresses body reading for HEAD responses.
pub fn read_response(
    conn: &mut dyn Connection,
    limits: &Limits,
    head_request: bool,
) -> Result<Response, HttpError> {
    let mut buf = BufConn::new(conn);
    let head = buf.read_head(limits.max_head)?;
    let head_str = std::str::from_utf8(&head).map_err(|_| HttpError::Parse("non-utf8 head"))?;
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
    let reason = parts.next().unwrap_or("").to_string();
    let headers = parse_headers(&mut lines)?;
    let body = if head_request || status == 204 || status == 304 {
        Vec::new()
    } else if is_chunked(&headers) {
        buf.read_body_chunked(limits.max_body)?
    } else {
        match body_length(&headers)? {
            Some(n) => buf.read_body_exact(n, limits.max_body)?,
            None => buf.read_body_to_eof(limits.max_body)?,
        }
    };
    Ok(Response {
        status,
        reason,
        headers,
        body,
    })
}

/// Serialize a response body with chunked transfer encoding.
pub fn write_response_chunked(
    conn: &mut dyn Connection,
    resp: &Response,
    chunk_size: usize,
) -> Result<(), HttpError> {
    let mut out = Vec::with_capacity(256 + resp.body.len());
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason).as_bytes());
    for (n, v) in resp.headers.iter() {
        if n.eq_ignore_ascii_case("content-length") {
            continue;
        }
        out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
    for chunk in resp.body.chunks(chunk_size.max(1)) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    conn.write_all(&out)?;
    Ok(())
}
