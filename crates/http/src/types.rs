//! HTTP message types.

use std::fmt;

/// Request method. The prober only ever issues parameter-free GETs (ethics
/// policy, §3.3), but the server side handles the usual verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Head,
    Post,
    Put,
    Delete,
    Options,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
        }
    }

    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Canonical reason phrase for the status codes the simulator emits
/// (Figure 6 distribution and friends).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        307 => "Temporary Redirect",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        418 => "I'm a teapot",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Case-insensitive, order-preserving header map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    pub fn new() -> HeaderMap {
        HeaderMap::default()
    }

    /// Append a header (duplicates allowed, like the wire format).
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Remove all values for `name`.
    pub fn remove(&mut self, name: &str) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }

    /// Replace any existing values with a single one.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.remove(name);
        self.insert(name.to_string(), value);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Case-insensitive token scan of a comma-separated header (e.g.
    /// `Connection: keep-alive, close`).
    pub fn contains_token(&self, name: &str, token: &str) -> bool {
        self.get_all(name)
            .flat_map(|v| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: Method,
    /// Origin-form target: path plus optional query (`/a/b?x=1`).
    pub target: String,
    pub headers: HeaderMap,
    pub body: Vec<u8>,
}

impl Request {
    /// A parameter-free GET for `target` with a `Host` header — exactly the
    /// probe request shape from §3.3.
    pub fn get(target: &str, host: &str) -> Request {
        let mut headers = HeaderMap::new();
        headers.insert("Host", host);
        Request {
            method: Method::Get,
            target: target.to_string(),
            headers,
            body: Vec::new(),
        }
    }

    /// Host header, if present.
    pub fn host(&self) -> Option<&str> {
        self.headers.get("host")
    }

    /// Path without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("/")
    }

    /// Query string (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub reason: String,
    pub headers: HeaderMap,
    pub body: Vec<u8>,
}

impl Response {
    /// Build a response with the canonical reason phrase.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            reason: reason_phrase(status).to_string(),
            headers: HeaderMap::new(),
            body: Vec::new(),
        }
    }

    /// Response with a body and content type.
    pub fn with_body(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        let mut r = Response::new(status);
        r.headers.insert("Content-Type", content_type);
        r.body = body.into();
        r
    }

    /// Plain-text convenience.
    pub fn text(status: u16, body: &str) -> Response {
        Response::with_body(
            status,
            "text/plain; charset=utf-8",
            body.as_bytes().to_vec(),
        )
    }

    /// JSON convenience.
    pub fn json(status: u16, body: &str) -> Response {
        Response::with_body(status, "application/json", body.as_bytes().to_vec())
    }

    /// HTML convenience.
    pub fn html(status: u16, body: &str) -> Response {
        Response::with_body(status, "text/html; charset=utf-8", body.as_bytes().to_vec())
    }

    /// A 301/302 redirect to `location`.
    pub fn redirect(status: u16, location: &str) -> Response {
        debug_assert!(matches!(status, 301 | 302 | 307));
        let mut r = Response::new(status);
        r.headers.insert("Location", location);
        r
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).to_string()
    }

    pub fn is_redirect(&self) -> bool {
        (300..400).contains(&self.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_map_is_case_insensitive() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn header_set_replaces_duplicates() {
        let mut h = HeaderMap::new();
        h.insert("X-A", "1");
        h.insert("x-a", "2");
        assert_eq!(h.get_all("X-A").count(), 2);
        h.set("X-A", "3");
        assert_eq!(h.get_all("X-A").count(), 1);
        assert_eq!(h.get("x-a"), Some("3"));
    }

    #[test]
    fn connection_token_scan() {
        let mut h = HeaderMap::new();
        h.insert("Connection", "keep-alive, Close");
        assert!(h.contains_token("connection", "close"));
        assert!(h.contains_token("connection", "keep-alive"));
        assert!(!h.contains_token("connection", "upgrade"));
    }

    #[test]
    fn request_helpers() {
        let r = Request::get("/path?x=1&y=2", "fn.on.aws");
        assert_eq!(r.host(), Some("fn.on.aws"));
        assert_eq!(r.path(), "/path");
        assert_eq!(r.query(), Some("x=1&y=2"));
        let bare = Request::get("/", "h");
        assert_eq!(bare.query(), None);
    }

    #[test]
    fn response_constructors() {
        let r = Response::json(200, r#"{"ok":true}"#);
        assert_eq!(r.status, 200);
        assert_eq!(r.reason, "OK");
        assert_eq!(r.headers.get("content-type"), Some("application/json"));

        let rd = Response::redirect(302, "https://hidden.example");
        assert!(rd.is_redirect());
        assert_eq!(rd.headers.get("location"), Some("https://hidden.example"));

        let nf = Response::new(404);
        assert_eq!(nf.reason, "Not Found");
    }

    #[test]
    fn method_roundtrip() {
        for m in [
            Method::Get,
            Method::Head,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Options,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }
}
