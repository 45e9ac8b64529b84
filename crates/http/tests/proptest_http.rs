//! Property tests: HTTP serialization/parse round-trips, reader
//! robustness under arbitrary and mutated inputs, and equivalence of the
//! fast reader with the scalar reference reader in `scalar/` — for
//! requests and responses alike.

mod scalar;

use fw_http::fast::{read_request_fast, read_response_fast, Scratch};
use fw_http::parse::{write_request, write_response, HttpError, Limits};
use fw_http::types::{HeaderMap, Method, Request, Response};
use fw_net::{pipe_pair, Connection, PipeConn};
use proptest::prelude::*;
use scalar::{read_request, read_response, write_response_chunked};

fn pair() -> (PipeConn, PipeConn) {
    pipe_pair(
        "10.0.0.1:50000".parse().unwrap(),
        "203.0.113.1:80".parse().unwrap(),
    )
}

/// A closed pipe whose reader end yields exactly `bytes`, then EOF.
fn feed(bytes: &[u8]) -> PipeConn {
    let (mut a, b) = pair();
    let _ = a.write_all(bytes);
    a.shutdown_write();
    b
}

/// Everything `write` puts on the wire.
fn wire_of(write: impl FnOnce(&mut PipeConn)) -> Vec<u8> {
    let (mut a, mut probe) = pair();
    write(&mut a);
    a.shutdown_write();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match probe.read(&mut buf).unwrap() {
            0 => return raw,
            n => raw.extend_from_slice(&buf[..n]),
        }
    }
}

fn arb_header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}"
}

fn arb_header_value() -> impl Strategy<Value = String> {
    "[ -~&&[^\r\n]]{0,40}".prop_map(|s| s.trim().to_string())
}

fn arb_headers() -> impl Strategy<Value = HeaderMap> {
    proptest::collection::vec((arb_header_name(), arb_header_value()), 0..8).prop_map(|hs| {
        let mut m = HeaderMap::new();
        for (n, v) in hs {
            // Reserved framing headers are set by the serializer.
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("transfer-encoding")
            {
                continue;
            }
            m.insert(n, v);
        }
        m
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        prop_oneof![
            Just(Method::Get),
            Just(Method::Post),
            Just(Method::Head),
            Just(Method::Put)
        ],
        "/[a-z0-9/._-]{0,30}",
        arb_headers(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(method, target, headers, body)| Request {
            method,
            target,
            headers,
            body,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        prop_oneof![
            Just(200u16),
            Just(204u16),
            Just(301u16),
            Just(304u16),
            Just(401u16),
            Just(404u16),
            Just(502u16)
        ],
        arb_headers(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(status, headers, body)| {
            let mut r = Response::new(status);
            r.headers = headers;
            r.body = body;
            r
        })
}

/// Bytes biased toward the framing grammar's delimiters.
fn arb_delimiter_soup(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'\r'),
            Just(b'\n'),
            Just(b':'),
            Just(b' '),
            Just(b'/'),
            any::<u8>(),
        ],
        0..max,
    )
}

/// Tight caps that force the TooLarge paths on small inputs.
const TIGHT: Limits = Limits {
    max_head: 48,
    max_body: 16,
};

/// Collapse an [`HttpError`] to a comparable key (variant + message;
/// io errors by kind).
fn err_key(e: &HttpError) -> String {
    match e {
        HttpError::Io(io) => format!("io:{:?}", io.kind()),
        HttpError::Parse(m) => format!("parse:{m}"),
        HttpError::TooLarge(w) => format!("toolarge:{w}"),
        HttpError::Eof => "eof".to_string(),
    }
}

/// Same message, or the same error variant and message.
fn assert_agree<T: PartialEq + std::fmt::Debug>(
    scalar: Result<T, HttpError>,
    fast: Result<T, HttpError>,
) -> Result<(), TestCaseError> {
    match (scalar, fast) {
        (Ok(s), Ok(f)) => prop_assert_eq!(s, f),
        (Err(se), Err(fe)) => prop_assert_eq!(err_key(&se), err_key(&fe)),
        (s, f) => prop_assert!(false, "scalar {:?} vs fast {:?}", s, f),
    }
    Ok(())
}

/// Feed `bytes` to the scalar and the fast request reader (each on its
/// own closed pipe) and require the same request or the same error.
fn assert_request_readers_agree(bytes: &[u8], limits: &Limits) -> Result<(), TestCaseError> {
    let scalar = read_request(&mut feed(bytes), limits);
    let mut scratch = Scratch::new();
    let fast =
        read_request_fast(&mut feed(bytes), &mut scratch, limits).map(|r| scratch.to_request(&r));
    assert_agree(scalar, fast)
}

/// The response-side twin of [`assert_request_readers_agree`]: same
/// status, reason, headers and body, or the same error.
fn assert_response_readers_agree(
    bytes: &[u8],
    limits: &Limits,
    head: bool,
) -> Result<(), TestCaseError> {
    let scalar = read_response(&mut feed(bytes), limits, head);
    let mut scratch = Scratch::new();
    let fast = read_response_fast(&mut feed(bytes), &mut scratch, limits, head)
        .map(|r| scratch.to_response(&r));
    assert_agree(scalar, fast)
}

/// `raw` with one byte overwritten, or cut short.
fn damage(
    mut raw: Vec<u8>,
    mutate: bool,
    idx: proptest::sample::Index,
    to: u8,
    cut: proptest::sample::Index,
) -> Vec<u8> {
    if mutate && !raw.is_empty() {
        let i = idx.index(raw.len());
        raw[i] = to;
    } else {
        raw.truncate(cut.index(raw.len() + 1));
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrips(req in arb_request()) {
        let raw = wire_of(|a| write_request(a, &req).unwrap());
        let mut scratch = Scratch::new();
        let parsed = read_request_fast(&mut feed(&raw), &mut scratch, &Limits::default()).unwrap();
        let got = scratch.to_request(&parsed);
        prop_assert_eq!(got.method, req.method);
        prop_assert_eq!(&got.target, &req.target);
        prop_assert_eq!(&got.body, &req.body);
        for (n, v) in req.headers.iter() {
            prop_assert_eq!(got.headers.get(n), Some(v));
        }
    }

    #[test]
    fn response_roundtrips(resp in arb_response()) {
        let raw = wire_of(|a| write_response(a, &resp).unwrap());
        let mut scratch = Scratch::new();
        let parsed = read_response_fast(&mut feed(&raw), &mut scratch, &Limits::default(), false).unwrap();
        let got = scratch.to_response(&parsed);
        prop_assert_eq!(got.status, resp.status);
        prop_assert_eq!(&got.reason, &resp.reason);
        if resp.status != 204 && resp.status != 304 {
            prop_assert_eq!(&got.body, &resp.body);
        }
    }

    #[test]
    fn chunked_response_roundtrips(resp in arb_response(), chunk in 1usize..64) {
        let raw = wire_of(|a| write_response_chunked(a, &resp, chunk).unwrap());
        let mut scratch = Scratch::new();
        let parsed = read_response_fast(&mut feed(&raw), &mut scratch, &Limits::default(), false).unwrap();
        if resp.status != 204 && resp.status != 304 {
            prop_assert_eq!(&scratch.to_response(&parsed).body, &resp.body);
        }
    }

    #[test]
    fn parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..768)) {
        let _ = read_request_fast(&mut feed(&bytes), &mut Scratch::new(), &Limits::default());
        let _ = read_response_fast(&mut feed(&bytes), &mut Scratch::new(), &Limits::default(), false);
    }

    #[test]
    fn fast_parser_matches_scalar_on_valid_requests(req in arb_request()) {
        // Serialize through the writer, then compare both readers on
        // the exact wire bytes.
        let raw = wire_of(|a| write_request(a, &req).unwrap());
        assert_request_readers_agree(&raw, &Limits::default())?;
    }

    #[test]
    fn fast_parser_matches_scalar_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..768),
    ) {
        assert_request_readers_agree(&bytes, &Limits::default())?;
    }

    #[test]
    fn fast_parser_matches_scalar_on_truncated_and_mutated_requests(
        req in arb_request(),
        cut in any::<proptest::sample::Index>(),
        idx in any::<proptest::sample::Index>(),
        to in any::<u8>(),
        mutate in any::<bool>(),
    ) {
        let raw = wire_of(|a| write_request(a, &req).unwrap());
        assert_request_readers_agree(&damage(raw, mutate, idx, to, cut), &Limits::default())?;
    }

    #[test]
    fn fast_parser_matches_scalar_under_tight_limits(bytes in arb_delimiter_soup(256)) {
        assert_request_readers_agree(&bytes, &TIGHT)?;
    }

    #[test]
    fn fast_parser_matches_scalar_on_chunked_requests(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..32,
        cut in any::<proptest::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        // Hand-build a chunked request (the writers only emit chunked
        // responses) and optionally truncate it mid-stream.
        let mut raw = Vec::new();
        raw.extend_from_slice(b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        for c in body.chunks(chunk) {
            raw.extend_from_slice(format!("{:x}\r\n", c.len()).as_bytes());
            raw.extend_from_slice(c);
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        if truncate {
            raw.truncate(cut.index(raw.len() + 1));
        }
        assert_request_readers_agree(&raw, &Limits::default())?;
    }

    #[test]
    fn fast_response_matches_scalar_on_valid_responses(resp in arb_response(), head in any::<bool>()) {
        let raw = wire_of(|a| write_response(a, &resp).unwrap());
        assert_response_readers_agree(&raw, &Limits::default(), head)?;
    }

    #[test]
    fn fast_response_matches_scalar_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..768),
        head in any::<bool>(),
    ) {
        assert_response_readers_agree(&bytes, &Limits::default(), head)?;
    }

    #[test]
    fn fast_response_matches_scalar_on_truncated_and_mutated_responses(
        resp in arb_response(),
        cut in any::<proptest::sample::Index>(),
        idx in any::<proptest::sample::Index>(),
        to in any::<u8>(),
        mutate in any::<bool>(),
        head in any::<bool>(),
    ) {
        let raw = wire_of(|a| write_response(a, &resp).unwrap());
        let raw = damage(raw, mutate, idx, to, cut);
        assert_response_readers_agree(&raw, &Limits::default(), head)?;
    }

    #[test]
    fn fast_response_matches_scalar_under_tight_limits(
        bytes in arb_delimiter_soup(256),
        head in any::<bool>(),
    ) {
        let mut raw = b"HTTP/1.1 200 OK\r\n".to_vec();
        raw.extend_from_slice(&bytes);
        assert_response_readers_agree(&raw, &TIGHT, head)?;
        assert_response_readers_agree(&bytes, &TIGHT, head)?;
    }

    #[test]
    fn fast_response_matches_scalar_with_stray_content_length(
        resp in arb_response(),
        junk in "[-+0-9a-z ]{0,6}",
        chunked in any::<bool>(),
        head in any::<bool>(),
    ) {
        // Splice a first — often malformed — Content-Length header in
        // after the status line of a length-framed or chunked response.
        let raw = wire_of(|a| {
            if chunked {
                write_response_chunked(a, &resp, 7).unwrap()
            } else {
                write_response(a, &resp).unwrap()
            }
        });
        let line_end = raw.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
        let mut spliced = raw[..line_end].to_vec();
        spliced.extend_from_slice(format!("Content-Length: {junk}\r\n").as_bytes());
        spliced.extend_from_slice(&raw[line_end..]);
        assert_response_readers_agree(&spliced, &Limits::default(), head)?;
    }

    #[test]
    fn fast_response_matches_scalar_on_chunked_responses(
        resp in arb_response(),
        chunk in 1usize..64,
        cut in any::<proptest::sample::Index>(),
        truncate in any::<bool>(),
        head in any::<bool>(),
    ) {
        let mut raw = wire_of(|a| write_response_chunked(a, &resp, chunk).unwrap());
        if truncate {
            raw.truncate(cut.index(raw.len() + 1));
        }
        assert_response_readers_agree(&raw, &Limits::default(), head)?;
        assert_response_readers_agree(&raw, &TIGHT, head)?;
    }
}

/// Responses whose `Content-Length` is malformed but unused by the body
/// framing (chunked, 204, 304, HEAD): the reference reader never parses
/// the header there, so the fast reader must not either.
#[test]
fn fast_response_matches_scalar_on_unused_malformed_content_length() {
    let cases: &[(&[u8], bool)] = &[
        (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: abc\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            false,
        ),
        (b"HTTP/1.1 204 No Content\r\nContent-Length: abc\r\n\r\n", false),
        (b"HTTP/1.1 304 Not Modified\r\nContent-Length: -1\r\n\r\n", false),
        (b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n", true),
        (b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n", false),
    ];
    for &(wire, head) in cases {
        assert_response_readers_agree(wire, &Limits::default(), head)
            .unwrap_or_else(|e| panic!("{}: {e:?}", String::from_utf8_lossy(wire)));
    }
}
