//! Request routing over `fw-http`, fronted by the sharded LRU cache.
//!
//! Routing is a static match over the first path segments — no
//! allocation on the hot path until a cache miss forces a compute.
//! Every response except `/v1/status` is cacheable: bodies are pure
//! functions of the frozen [`ServeState`], so a cached byte stream is
//! always identical to a recomputed one (the load harness digests
//! responses to prove it). `/v1/status` stays uncached because it
//! reports the live cache counters themselves.
//!
//! The zero-copy [`ServeApi::serve_fast`] loop parses in place with
//! [`fw_http::fast`], answers cache hits by writing the stored wire
//! image straight to the connection (one pointer clone + one
//! `write_all`), and renders everything else — the live status
//! document and any `Connection: close` reply — into a reusable scratch
//! buffer. [`ServeApi::serve_pool`] runs it on a fixed pool of
//! clock-registered accept workers with flow-steered connections. The
//! renderers are byte-identical to `fw_http::parse::write_response`,
//! and the unit tests pin the response bytes.
//!
//! Instrumentation: one latency histogram per endpoint
//! (`fw.serve.latency_us.<endpoint>`), `fw.serve.requests` /
//! `fw.serve.responses.<class>` counters, and a trace span per request
//! when the trace layer is armed.

use crate::cache::{CacheConfig, CacheStats, CachedResponse, ShardedCache};
use crate::state::ServeState;
use fw_dns::pdns::PdnsBackend;
use fw_http::fast::{read_request_fast, render_response, render_status, Scratch};
use fw_http::parse::{HttpError, Limits};
use fw_http::types::Method;
use fw_net::{Connection, SimNet};
use fw_obs::{counter_inc, Histogram};
use fw_types::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Route classes, used for per-endpoint latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Status,
    Verdict,
    Usage,
    Abuse,
    Candidates,
    Figures,
    NotFound,
}

impl Endpoint {
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Status,
        Endpoint::Verdict,
        Endpoint::Usage,
        Endpoint::Abuse,
        Endpoint::Candidates,
        Endpoint::Figures,
        Endpoint::NotFound,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Status => "status",
            Endpoint::Verdict => "verdict",
            Endpoint::Usage => "usage",
            Endpoint::Abuse => "abuse",
            Endpoint::Candidates => "candidates",
            Endpoint::Figures => "figures",
            Endpoint::NotFound => "not_found",
        }
    }
}

const BODY_404: &str = "{\"error\": \"no such endpoint\"}";
const BODY_405: &str = "{\"error\": \"GET only\"}";

/// The API: frozen state + response cache + instrumentation handles.
///
/// The state rides behind an `Arc` so several `ServeApi` instances (the
/// worker-scaling sweep builds one per worker count) can front the same
/// frozen snapshot without rebuilding it.
pub struct ServeApi<B: PdnsBackend> {
    state: Arc<ServeState<B>>,
    cache: ShardedCache,
    latency: Vec<Arc<Histogram>>,
    seq: AtomicU64,
    /// Pre-rendered wire images for the two constant error responses.
    wire_404: Arc<CachedResponse>,
    wire_405: Arc<CachedResponse>,
}

impl<B: PdnsBackend> ServeApi<B> {
    pub fn new(state: Arc<ServeState<B>>, cache: CacheConfig) -> ServeApi<B> {
        let latency = Endpoint::ALL
            .iter()
            .map(|ep| fw_obs::registry().histogram(&format!("fw.serve.latency_us.{}", ep.label())))
            .collect();
        ServeApi {
            state,
            cache: ShardedCache::new(cache),
            latency,
            seq: AtomicU64::new(0),
            wire_404: Arc::new(CachedResponse::render(
                404,
                "application/json",
                BODY_404.as_bytes(),
            )),
            wire_405: Arc::new(CachedResponse::render(
                405,
                "application/json",
                BODY_405.as_bytes(),
            )),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Render the live status document (uncached by design: it reports
    /// the cache's own counters).
    fn status_body(&self) -> String {
        let cache = self.cache.stats();
        let mut doc = match self.state.status_json() {
            Json::Obj(fields) => fields,
            other => vec![("state".to_string(), other)],
        };
        doc.push((
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::Num(cache.hits as f64)),
                ("misses".to_string(), Json::Num(cache.misses as f64)),
                ("evictions".to_string(), Json::Num(cache.evictions as f64)),
                ("entries".to_string(), Json::Num(cache.entries as f64)),
            ]),
        ));
        Json::Obj(doc).render()
    }

    /// Route a GET target to its endpoint class and response source.
    fn route_target(&self, target: &str) -> (Endpoint, Routed) {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let mut segs = path.trim_start_matches('/').splitn(4, '/');
        match (segs.next(), segs.next(), segs.next(), segs.next()) {
            (Some("v1"), Some("status"), None, None) => (Endpoint::Status, Routed::Status),
            (Some("v1"), Some("verdict"), Some(fqdn), None) => (
                Endpoint::Verdict,
                Routed::Cached(self.cached(target, |s| s.verdict_body(fqdn))),
            ),
            (Some("v1"), Some("usage"), Some(fqdn), None) => (
                Endpoint::Usage,
                Routed::Cached(self.cached(target, |s| s.usage_body(fqdn))),
            ),
            (Some("v1"), Some("abuse"), Some(fqdn), None) => (
                Endpoint::Abuse,
                Routed::Cached(self.cached(target, |s| s.abuse_body(fqdn))),
            ),
            (Some("v1"), Some("candidates"), None, None) => {
                let (offset, limit) = paging(query);
                (
                    Endpoint::Candidates,
                    Routed::Cached(self.cached(target, |s| s.candidates_body(offset, limit))),
                )
            }
            (Some("v1"), Some("figures"), Some(name), None) => (
                Endpoint::Figures,
                Routed::Cached(self.cached(target, |s| s.figure_body(name))),
            ),
            _ => (
                Endpoint::NotFound,
                Routed::Cached(Arc::clone(&self.wire_404)),
            ),
        }
    }

    /// Cache-through: key on the full request target, compute on miss.
    /// Returns the shared wire image — hits clone a pointer, nothing
    /// else.
    fn cached(
        &self,
        target: &str,
        compute: impl FnOnce(&ServeState<B>) -> (u16, String),
    ) -> Arc<CachedResponse> {
        let h = ShardedCache::hash_key(target);
        if let Some(hit) = self.cache.get_h(target, h) {
            return hit;
        }
        let (status, body) = compute(&self.state);
        let entry = Arc::new(CachedResponse::render(
            status,
            "application/json",
            body.as_bytes(),
        ));
        self.cache.put_h(target, h, Arc::clone(&entry));
        entry
    }

    /// The zero-copy serve loop: parse in place, write cache hits as
    /// stored wire images, render everything else into the reusable
    /// scratch buffer. A `Connection: close` request is answered with
    /// the close header set after the content type — the framing
    /// `fw_http::server::serve_connection` gives it — and ends the loop.
    /// `scratch` may carry a previous connection's unread bytes, so it
    /// is reset first.
    pub fn serve_fast(&self, conn: &mut dyn Connection, scratch: &mut Scratch) {
        let limits = Limits::default();
        scratch.reset();
        loop {
            let req = match read_request_fast(conn, scratch, &limits) {
                Ok(r) => r,
                Err(HttpError::Eof) | Err(HttpError::Io(_)) => break,
                Err(HttpError::Parse(_)) | Err(HttpError::TooLarge(_)) => {
                    scratch.out.clear();
                    render_status(&mut scratch.out, 400);
                    let _ = conn.write_all(&scratch.out);
                    break;
                }
            };
            let t = Instant::now();
            let _span =
                fw_obs::trace_span_arg("serve/req", self.seq.fetch_add(1, Ordering::Relaxed));
            counter_inc!("fw.serve.requests");
            let (ep, routed) = if req.method == Method::Get {
                self.route_target(scratch.target(&req))
            } else {
                (
                    Endpoint::NotFound,
                    Routed::Cached(Arc::clone(&self.wire_405)),
                )
            };
            let (status, written) = match routed {
                Routed::Cached(entry) if !req.close => (entry.status, conn.write_all(entry.wire())),
                Routed::Cached(entry) => (
                    entry.status,
                    write_json(conn, &mut scratch.out, entry.status, entry.body(), true),
                ),
                Routed::Status => {
                    let body = self.status_body();
                    let written =
                        write_json(conn, &mut scratch.out, 200, body.as_bytes(), req.close);
                    (200, written)
                }
            };
            if written.is_err() {
                break;
            }
            if fw_obs::enabled() {
                self.latency[ep as usize].record(t.elapsed().as_micros() as u64);
                match status {
                    200..=299 => counter_inc!("fw.serve.responses.ok"),
                    400..=499 => counter_inc!("fw.serve.responses.client_error"),
                    _ => counter_inc!("fw.serve.responses.other"),
                }
            }
            if req.close {
                break;
            }
        }
        conn.shutdown_write();
    }

    /// Register this API as a pooled SimNet listener: `workers` accept
    /// loops, each owning one reusable [`Scratch`] and running
    /// [`ServeApi::serve_fast`] on every steered connection.
    pub fn serve_pool(self: &Arc<Self>, net: &SimNet, addr: SocketAddr, workers: usize)
    where
        B: Send + Sync + 'static,
    {
        let api = Arc::clone(self);
        net.listen_pool(addr, workers, move |_w| {
            let api = Arc::clone(&api);
            let mut scratch = Scratch::new();
            move |mut conn: Box<dyn Connection>| {
                let _ = conn.set_read_timeout(None);
                api.serve_fast(&mut *conn, &mut scratch);
            }
        });
    }
}

/// Where a routed response comes from.
enum Routed {
    /// Live status document (uncached).
    Status,
    /// A stored wire image: cache-through, or a constant error reply.
    Cached(Arc<CachedResponse>),
}

/// Render a JSON response into `out` and write it.
fn write_json(
    conn: &mut dyn Connection,
    out: &mut Vec<u8>,
    status: u16,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    out.clear();
    render_response(out, status, "application/json", close, body);
    conn.write_all(out)
}

/// Parse `offset=&limit=` out of a query string (defaults 0 / 50).
fn paging(query: Option<&str>) -> (usize, usize) {
    let (mut offset, mut limit) = (0usize, 50usize);
    for pair in query.unwrap_or("").split('&') {
        match pair.split_once('=') {
            Some(("offset", v)) => offset = v.parse().unwrap_or(0),
            Some(("limit", v)) => limit = v.parse().unwrap_or(50),
            _ => {}
        }
    }
    (offset, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;
    use fw_http::fast::read_response_fast;
    use fw_http::parse::write_request;
    use fw_http::types::{Request, Response};
    use fw_net::{pipe_pair, PipeConn};
    use fw_types::{DayStamp, Fqdn, Rdata};
    use std::net::Ipv4Addr;
    use std::thread::JoinHandle;

    const FQDN: &str = "a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";

    fn api() -> Arc<ServeApi<PdnsStore>> {
        let mut store = PdnsStore::new();
        let f = Fqdn::parse(FQDN).unwrap();
        let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 9));
        for d in [19_100, 19_101, 19_102] {
            store.observe_count(&f, &ip, DayStamp(d), 40);
        }
        Arc::new(ServeApi::new(
            Arc::new(ServeState::build(store, 1)),
            CacheConfig::default(),
        ))
    }

    /// `api.serve_fast` on the far end of a pipe.
    fn serve(api: &Arc<ServeApi<PdnsStore>>) -> (PipeConn, JoinHandle<()>) {
        let (client, mut server) = pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        );
        let api = Arc::clone(api);
        let srv = std::thread::spawn(move || api.serve_fast(&mut server, &mut Scratch::new()));
        (client, srv)
    }

    /// Keep-alive exchanges, one request at a time.
    fn exchange_all(api: &Arc<ServeApi<PdnsStore>>, requests: &[(Method, &str)]) -> Vec<Response> {
        let (mut client, srv) = serve(api);
        let mut scratch = Scratch::new();
        let out = requests
            .iter()
            .map(|&(method, target)| {
                let mut req = Request::get(target, "api.sim");
                req.method = method;
                write_request(&mut client, &req).unwrap();
                let resp = read_response_fast(&mut client, &mut scratch, &Limits::default(), false)
                    .unwrap();
                scratch.to_response(&resp)
            })
            .collect();
        client.shutdown_write();
        srv.join().unwrap();
        out
    }

    /// Every byte the server writes in answer to `bytes`, sent at once.
    fn raw_exchange(bytes: &[u8]) -> Vec<u8> {
        let (mut client, srv) = serve(&api());
        client.write_all(bytes).unwrap();
        client.shutdown_write();
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match client.read(&mut buf).unwrap() {
                0 => break,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
        srv.join().unwrap();
        raw
    }

    #[test]
    fn routes_resolve_and_missing_paths_404() {
        let (verdict, usage, abuse) = (
            format!("/v1/verdict/{FQDN}"),
            format!("/v1/usage/{FQDN}"),
            format!("/v1/abuse/{FQDN}"),
        );
        let cases = [
            (Method::Get, "/v1/status", 200),
            (Method::Get, verdict.as_str(), 200),
            (Method::Get, usage.as_str(), 200),
            (Method::Get, abuse.as_str(), 200),
            (Method::Get, "/v1/candidates?offset=0&limit=5", 200),
            (Method::Get, "/v1/figures/ingress", 200),
            (Method::Get, "/", 404),
            (Method::Get, "/v2/status", 404),
            (Method::Get, "/v1/nope", 404),
            (Method::Get, "/v1/status/extra", 404),
            (Method::Post, "/v1/status", 405),
        ];
        let requests: Vec<(Method, &str)> = cases.iter().map(|&(m, t, _)| (m, t)).collect();
        let resps = exchange_all(&api(), &requests);
        for ((method, target, want), resp) in cases.iter().zip(&resps) {
            assert_eq!(resp.status, *want, "{method} {target}");
            Json::parse(&resp.body_text()).expect("json body");
        }
    }

    #[test]
    fn repeat_requests_hit_the_cache_with_identical_bytes() {
        let api = api();
        let target = format!("/v1/usage/{FQDN}");
        let first = exchange_all(&api, &[(Method::Get, &target)]);
        let stats = api.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let second = exchange_all(&api, &[(Method::Get, &target)]);
        assert_eq!(api.cache_stats().hits, 1);
        assert_eq!(first, second);
    }

    #[test]
    fn status_reports_live_cache_counters() {
        let api = api();
        let resps = exchange_all(
            &api,
            &[
                (Method::Get, "/v1/figures/invocation"),
                (Method::Get, "/v1/figures/invocation"),
                (Method::Get, "/v1/status"),
            ],
        );
        let doc = Json::parse(&resps[2].body_text()).unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    }

    /// A mixed sequence of hits, misses and 404s, sent back to back on
    /// one connection: the response stream is pinned by length and
    /// FNV-1a digest to the bytes the serving plane has always emitted.
    #[test]
    fn mixed_sequence_matches_pinned_bytes() {
        let targets = [
            format!("/v1/verdict/{FQDN}"),
            format!("/v1/usage/{FQDN}"),
            format!("/v1/verdict/{FQDN}"),
            format!("/v1/abuse/{FQDN}"),
            "/v1/candidates?offset=20&limit=20".to_string(),
            "/v1/figures/ingress".to_string(),
            "/v1/verdict/miss-1234.not-observed.example".to_string(),
            "/does/not/exist".to_string(),
        ];
        let mut wire = Vec::new();
        for target in &targets {
            fw_http::fast::render_get(&mut wire, target, "api.sim");
        }
        let raw = raw_exchange(&wire);
        assert_eq!(raw.len(), 1614);
        assert_eq!(fw_types::fnv::fnv1a(&raw), 0x613c_1e7e_e15e_bea7);
    }

    /// `Connection: close` to a cacheable endpoint and to a non-GET:
    /// the close header sits between the content type and the length.
    #[test]
    fn close_requests_match_pinned_bytes() {
        let verdict = raw_exchange(
            format!(
                "GET /v1/verdict/{FQDN} HTTP/1.1\r\nHost: api.sim\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        );
        let want = concat!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: close\r\n",
            "Content-Length: 231\r\n\r\n",
            r#"{"fqdn":"a1b2c3d4e5f6.lambda-url.us-east-1.on.aws","verdict":"function","#,
            r#""provider":"AWS","region":"us-east-1","first_seen_day":19100,"#,
            r#""last_seen_day":19102,"days_active":3,"total_requests":120,"#,
            r#""lifespan_days":3,"activity_density":1}"#,
        );
        assert_eq!(String::from_utf8(verdict).unwrap(), want);
        let post =
            raw_exchange(b"POST /v1/status HTTP/1.1\r\nHost: api.sim\r\nConnection: close\r\n\r\n");
        let want = concat!(
            "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n",
            "Connection: close\r\nContent-Length: 21\r\n\r\n",
            r#"{"error": "GET only"}"#,
        );
        assert_eq!(String::from_utf8(post).unwrap(), want);
    }

    /// A worker's scratch outlives its connections: bytes a client left
    /// half-sent must not leak into the next connection's request.
    #[test]
    fn truncated_request_does_not_poison_the_next_connection() {
        let api = api();
        let mut scratch = Scratch::new();
        let mut answers = Vec::new();
        for wire in [
            &b"GET /v1/sta"[..],
            b"GET /v1/figures/ingress HTTP/1.1\r\n\r\n",
        ] {
            let (mut client, mut server) = pipe_pair(
                "10.0.0.1:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            client.write_all(wire).unwrap();
            client.shutdown_write();
            api.serve_fast(&mut server, &mut scratch);
            let resp =
                read_response_fast(&mut client, &mut Scratch::new(), &Limits::default(), false)
                    .unwrap();
            answers.push(resp.status);
        }
        assert_eq!(answers, [400, 200]);
    }

    #[test]
    fn garbage_request_line_gets_pinned_400() {
        let raw = raw_exchange(b"GARBAGE REQUEST LINE\r\n\r\n");
        assert_eq!(
            raw,
            b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
        );
    }

    /// The pooled listener answers over SimNet.
    #[test]
    fn serve_pool_answers_over_simnet() {
        let api = api();
        let net = SimNet::new(7);
        let addr: SocketAddr = "10.9.0.1:8080".parse().unwrap();
        api.serve_pool(&net, addr, 2);
        let mut scratch = Scratch::new();
        for flow in 0..4u64 {
            let mut conn = net.connect_flow_id(addr, flow).unwrap();
            conn.set_read_timeout(None).unwrap();
            let target = format!("/v1/verdict/{FQDN}");
            write_request(&mut conn, &Request::get(&target, "api.sim")).unwrap();
            let resp =
                read_response_fast(&mut conn, &mut scratch, &Limits::default(), false).unwrap();
            assert_eq!(resp.status, 200);
            Json::parse(&scratch.to_response(&resp).body_text()).expect("json body");
        }
        assert!(api.cache_stats().hits >= 3);
    }
}
