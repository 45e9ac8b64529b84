//! Blocking HTTP client over pluggable transports.
//!
//! The [`Dialer`] trait abstracts how a socket to `(address, SNI)` is
//! opened: [`SimDialer`] goes through the simulated internet (with
//! simulated TLS on port 443), [`TcpDialer`] opens real TCP sockets. The
//! prober composes this client with DNS resolution and its ethics policy.

use crate::fast::{read_response_fast, Scratch};
use crate::parse::{write_request, HttpError, Limits};
use crate::types::{Method, Request, Response};
use crate::url::Url;
use fw_net::tcp::TcpConn;
use fw_net::{Connection, SimNet, TlsClient, TlsError};
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// Client configuration. The 60-second default timeout follows the paper
/// (§3.3, "a uniform timeout of 60 seconds was applied").
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub read_timeout: Duration,
    pub limits: Limits,
    pub user_agent: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            limits: Limits::default(),
            user_agent: "faaswild-probe/0.1 (research; opt-out: see probe host)".to_string(),
        }
    }
}

/// Opens transport connections for the client.
pub trait Dialer: Send + Sync {
    /// Open a connection to `addr` for `host` (the server name being
    /// contacted — simulated transports key deterministic fault
    /// injection on it). When `tls` is set, negotiate TLS with `host` as
    /// the SNI. `timeout` bounds the handshake reads — on a lossy
    /// network a dropped hello must not hang the dial forever.
    fn dial(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, DialError>;
}

/// Why a dial failed — the prober distinguishes these (Figure 6's
/// unreachable bucket vs. TLS fallback).
#[derive(Debug)]
pub enum DialError {
    /// TCP-level failure (refused, timeout...).
    Connect(io::Error),
    /// TLS handshake failed; HTTP fallback may succeed.
    Tls(TlsError),
}

impl std::fmt::Display for DialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DialError::Connect(e) => write!(f, "connect failed: {e}"),
            DialError::Tls(e) => write!(f, "tls failed: {e}"),
        }
    }
}

impl std::error::Error for DialError {}

/// Dialer over the simulated internet.
#[derive(Clone)]
pub struct SimDialer {
    net: SimNet,
}

impl SimDialer {
    pub fn new(net: SimNet) -> SimDialer {
        SimDialer { net }
    }
}

impl Dialer for SimDialer {
    fn dial(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, DialError> {
        let mut conn = self
            .net
            .connect_for(addr, host)
            .map_err(DialError::Connect)?;
        conn.set_read_timeout(Some(timeout))
            .map_err(DialError::Connect)?;
        if tls {
            TlsClient::handshake(conn, host).map_err(DialError::Tls)
        } else {
            Ok(conn)
        }
    }
}

/// Dialer over real TCP (loopback examples). TLS-over-TCP uses the same
/// simulated TLS framing, so a `fw-http` server must be on the other end.
pub struct TcpDialer {
    pub connect_timeout: Duration,
}

impl Default for TcpDialer {
    fn default() -> Self {
        TcpDialer {
            connect_timeout: Duration::from_secs(10),
        }
    }
}

impl Dialer for TcpDialer {
    fn dial(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, DialError> {
        let mut conn = TcpConn::connect(addr, self.connect_timeout).map_err(DialError::Connect)?;
        conn.set_read_timeout(Some(timeout))
            .map_err(DialError::Connect)?;
        let boxed: Box<dyn Connection> = Box::new(conn);
        if tls {
            TlsClient::handshake(boxed, host).map_err(DialError::Tls)
        } else {
            Ok(boxed)
        }
    }
}

/// Outcome of one HTTP exchange.
#[derive(Debug)]
pub enum FetchError {
    Dial(DialError),
    Http(HttpError),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Dial(e) => write!(f, "{e}"),
            FetchError::Http(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Identity of a pooled connection: same target, same server name, same
/// transport security. A request may only reuse a connection whose key
/// matches exactly.
type ConnKey = (SocketAddr, String, bool);

/// A connection with the parse scratch that holds its read state.
struct Parked {
    conn: Box<dyn Connection>,
    scratch: Scratch,
}

/// The blocking HTTP client.
///
/// Holds one keep-alive slot: after a `send` whose request *and*
/// response both permit reuse (no `Connection: close`, self-delimiting
/// body framing), the connection is parked and the next `send` to the
/// same `(addr, host, tls)` replays over it instead of dialing. The
/// connection parks together with its [`Scratch`], so its receive
/// buffer is reused across the exchanges it carries. A server-initiated
/// close or any mid-exchange error on a reused connection falls back to
/// exactly one fresh dial.
pub struct HttpClient<D: Dialer> {
    dialer: D,
    config: ClientConfig,
    slot: Mutex<Option<(ConnKey, Parked)>>,
}

/// Does the request opt out of keep-alive?
fn request_wants_close(req: &Request) -> bool {
    req.headers
        .get("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// May the connection be reused after this exchange? True only when the
/// response body was self-delimiting (Content-Length, chunked, or
/// bodiless status) — a read-to-EOF body consumes the connection — and
/// the server did not ask to close.
fn response_permits_reuse(head: bool, resp: &Response) -> bool {
    if resp
        .headers
        .get("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    {
        return false;
    }
    head || resp.status == 204
        || resp.status == 304
        || resp.headers.get("content-length").is_some()
        || resp
            .headers
            .get("transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
}

impl<D: Dialer> HttpClient<D> {
    pub fn new(dialer: D, config: ClientConfig) -> HttpClient<D> {
        HttpClient {
            dialer,
            config,
            slot: Mutex::new(None),
        }
    }

    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Take the pooled connection if its key matches.
    fn take_pooled(&self, key: &ConnKey) -> Option<Parked> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        match slot.take() {
            Some((k, parked)) if &k == key => Some(parked),
            other => {
                *slot = other; // wrong key: leave it parked
                None
            }
        }
    }

    /// Park `conn` for the next same-key request.
    fn park(&self, key: ConnKey, parked: Parked) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some((key, parked));
    }

    /// One request/response exchange over an open connection.
    fn exchange(&self, parked: &mut Parked, req: &Request) -> Result<Response, HttpError> {
        write_request(parked.conn.as_mut(), req)?;
        let head = req.method == Method::Head;
        let resp = read_response_fast(
            parked.conn.as_mut(),
            &mut parked.scratch,
            &self.config.limits,
            head,
        )?;
        Ok(parked.scratch.to_response(&resp))
    }

    /// Issue `req` to `addr` (resolved separately — the prober owns
    /// DNS). `host` names the server being contacted; `tls` switches TLS
    /// (with `host` as SNI) on.
    ///
    /// Transparent keep-alive: unless the request carries
    /// `Connection: close`, the client first tries the parked connection
    /// for this `(addr, host, tls)`; if the server has since closed it
    /// (or the exchange errors mid-stream) it falls back to one fresh
    /// dial, so callers observe at most the errors a fresh-dial-per-send
    /// client would.
    pub fn send(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        req: &Request,
    ) -> Result<Response, FetchError> {
        let key: ConnKey = (addr, host.to_string(), tls);
        let pooling = !request_wants_close(req);
        let head = req.method == Method::Head;

        if pooling {
            if let Some(mut parked) = self.take_pooled(&key) {
                match self.exchange(&mut parked, req) {
                    Ok(resp) => {
                        fw_obs::counter_inc!("fw.http.conn.reused");
                        if response_permits_reuse(head, &resp) {
                            self.park(key, parked);
                        }
                        return Ok(resp);
                    }
                    Err(_) => {
                        // Server closed the parked connection (or the
                        // exchange died mid-stream): drop it and fall
                        // back to a fresh dial below.
                        fw_obs::counter_inc!("fw.http.conn.reuse_failed");
                    }
                }
            }
        }

        let mut conn = self
            .dialer
            .dial(addr, host, tls, self.config.read_timeout)
            .map_err(FetchError::Dial)?;
        fw_obs::counter_inc!("fw.http.conn.dialed");
        conn.set_read_timeout(Some(self.config.read_timeout))
            .map_err(|e| FetchError::Http(HttpError::Io(e)))?;
        let mut parked = Parked {
            conn,
            scratch: Scratch::new(),
        };
        let resp = self.exchange(&mut parked, req).map_err(FetchError::Http)?;
        if pooling && response_permits_reuse(head, &resp) {
            self.park(key, parked);
        }
        Ok(resp)
    }

    /// Parameter-free GET of a URL against a resolved address — the §3.3
    /// probe shape: `User-Agent` identifies the research probe.
    pub fn get_url(&self, addr: SocketAddr, url: &Url) -> Result<Response, FetchError> {
        let mut req = Request::get(&url.target(), &url.host);
        req.headers
            .insert("User-Agent", self.config.user_agent.clone());
        req.headers.insert("Accept", "*/*");
        req.headers.insert("Connection", "close");
        self.send(
            SocketAddr::new(addr.ip(), url.port),
            &url.host,
            url.https,
            &req,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::read_request_fast;
    use crate::parse::write_response;
    use crate::server::serve_connection;
    use crate::types::Response;
    use fw_net::{ClockSource as _, TlsServer};
    use std::sync::Arc;

    /// Read one request off `conn` (server side of a hand-rolled peer).
    fn next_request(
        conn: &mut dyn Connection,
        scratch: &mut Scratch,
    ) -> Result<Request, HttpError> {
        read_request_fast(conn, scratch, &Limits::default()).map(|r| scratch.to_request(&r))
    }

    fn sim_with_server(tls_cert: Option<&'static str>) -> (SimNet, SocketAddr) {
        let net = SimNet::new(1);
        let addr: SocketAddr = "203.0.113.10:443".parse().unwrap();
        net.listen(
            addr,
            Arc::new(move |conn: Box<dyn Connection>| {
                let mut conn = match tls_cert {
                    Some(cert) => match TlsServer::accept(conn, cert) {
                        Ok((c, _sni)) => c,
                        Err(_) => return,
                    },
                    None => conn,
                };
                serve_connection(conn.as_mut(), &Limits::default(), &|req: &Request| {
                    Response::json(200, &format!(r#"{{"path":"{}"}}"#, req.path()))
                });
            }),
        );
        (net, addr)
    }

    #[test]
    fn get_over_simulated_tls() {
        let (net, addr) = sim_with_server(Some("*.on.aws"));
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("https://fn.lambda-url.us-east-1.on.aws/").unwrap();
        let resp = client.get_url(addr, &url).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), r#"{"path":"/"}"#);
    }

    #[test]
    fn plain_http_when_url_is_http() {
        let net = SimNet::new(2);
        let addr: SocketAddr = "203.0.113.11:80".parse().unwrap();
        net.listen_fn(addr, |mut conn| {
            serve_connection(conn.as_mut(), &Limits::default(), &|_: &Request| {
                Response::text(200, "plain")
            });
        });
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("http://fn.lambda-url.us-east-1.on.aws/").unwrap();
        let resp = client.get_url(addr, &url).unwrap();
        assert_eq!(resp.body_text(), "plain");
    }

    #[test]
    fn tls_cert_mismatch_is_a_dial_error() {
        let (net, addr) = sim_with_server(Some("*.fcapp.run"));
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("https://fn.lambda-url.us-east-1.on.aws/").unwrap();
        match client.get_url(addr, &url) {
            Err(FetchError::Dial(DialError::Tls(TlsError::CertMismatch { .. }))) => {}
            other => panic!("expected cert mismatch, got {other:?}"),
        }
    }

    #[test]
    fn connection_refused_is_a_dial_error() {
        let net = SimNet::new(3);
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("http://nobody.on.aws/").unwrap();
        match client.get_url("203.0.113.99:80".parse().unwrap(), &url) {
            Err(FetchError::Dial(DialError::Connect(e))) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
            }
            other => panic!("expected refused, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_reuses_connection_across_sends() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(5);
        let addr: SocketAddr = "203.0.113.20:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                accepts_srv.fetch_add(1, Ordering::SeqCst);
                // Keep-alive server: answer requests until the peer goes
                // away. write_response always emits Content-Length, so
                // every response is reuse-safe.
                serve_connection(conn.as_mut(), &Limits::default(), &|req: &Request| {
                    Response::text(200, &format!("path={}", req.path()))
                });
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        for i in 0..5 {
            let req = Request::get(&format!("/probe/{i}"), "relay.on.aws");
            let resp = client.send(addr, "relay.on.aws", false, &req).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_text(), format!("path=/probe/{i}"));
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "one dial for 5 sends");
    }

    #[test]
    fn connection_close_request_bypasses_the_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(6);
        let addr: SocketAddr = "203.0.113.21:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                accepts_srv.fetch_add(1, Ordering::SeqCst);
                serve_connection(conn.as_mut(), &Limits::default(), &|_: &Request| {
                    Response::text(200, "ok")
                });
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        for _ in 0..3 {
            let mut req = Request::get("/", "fn.on.aws");
            req.headers.insert("Connection", "close");
            assert_eq!(
                client.send(addr, "fn.on.aws", false, &req).unwrap().status,
                200
            );
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            3,
            "close ⇒ fresh dial each time"
        );
    }

    #[test]
    fn server_initiated_close_falls_back_to_fresh_dial() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(7);
        let addr: SocketAddr = "203.0.113.22:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        // One-shot server: answers a single request, then hangs up — the
        // parked connection is dead by the time the client reuses it.
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                accepts_srv.fetch_add(1, Ordering::SeqCst);
                if next_request(conn.as_mut(), &mut Scratch::new()).is_ok() {
                    let _ = write_response(conn.as_mut(), &Response::text(200, "once"));
                }
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        for _ in 0..3 {
            let req = Request::get("/", "oneshot.on.aws");
            let resp = client.send(addr, "oneshot.on.aws", false, &req).unwrap();
            assert_eq!(resp.body_text(), "once");
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            3,
            "every reuse attempt must fall back to a fresh dial"
        );
    }

    #[test]
    fn mid_stream_error_on_reused_connection_falls_back() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(8);
        let addr: SocketAddr = "203.0.113.23:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                let nth = accepts_srv.fetch_add(1, Ordering::SeqCst);
                if nth == 0 {
                    // First connection: answer one request cleanly, then
                    // die mid-response on the next — a truncated status
                    // line the client cannot parse.
                    let mut scratch = Scratch::new();
                    if next_request(conn.as_mut(), &mut scratch).is_ok() {
                        let _ = write_response(conn.as_mut(), &Response::text(200, "first"));
                    }
                    if next_request(conn.as_mut(), &mut scratch).is_ok() {
                        let _ = conn.write_all(b"HTTP/1.1 2");
                    }
                } else {
                    // Replacement connection behaves.
                    serve_connection(conn.as_mut(), &Limits::default(), &|_: &Request| {
                        Response::text(200, "recovered")
                    });
                }
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let req = Request::get("/", "flaky.on.aws");
        assert_eq!(
            client
                .send(addr, "flaky.on.aws", false, &req)
                .unwrap()
                .body_text(),
            "first"
        );
        let resp = client.send(addr, "flaky.on.aws", false, &req).unwrap();
        assert_eq!(
            resp.body_text(),
            "recovered",
            "mid-stream error ⇒ fresh dial"
        );
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn pool_is_keyed_on_addr_host_and_tls() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(9);
        let addr_a: SocketAddr = "203.0.113.24:80".parse().unwrap();
        let addr_b: SocketAddr = "203.0.113.25:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        for addr in [addr_a, addr_b] {
            let accepts_srv = accepts.clone();
            net.listen(
                addr,
                Arc::new(move |mut conn: Box<dyn Connection>| {
                    accepts_srv.fetch_add(1, Ordering::SeqCst);
                    serve_connection(conn.as_mut(), &Limits::default(), &|_: &Request| {
                        Response::text(200, "ok")
                    });
                }),
            );
        }
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let req = Request::get("/", "a.on.aws");
        client.send(addr_a, "a.on.aws", false, &req).unwrap();
        // Different address: parked conn must not be used.
        client.send(addr_b, "a.on.aws", false, &req).unwrap();
        // Back to A: A's conn was displaced by B's, so this dials again.
        client.send(addr_a, "a.on.aws", false, &req).unwrap();
        assert_eq!(accepts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn timeout_on_silent_server() {
        let net = SimNet::new(4);
        let addr: SocketAddr = "203.0.113.12:80".parse().unwrap();
        let handler_clock = net.clock().clone();
        net.listen_fn(addr, move |mut conn| {
            // Read the request but never answer: park on the (virtual)
            // clock well past the client's timeout before hanging up.
            let mut buf = [0u8; 1024];
            let _ = conn.read(&mut buf);
            handler_clock.sleep(Duration::from_millis(300));
        });
        let client = HttpClient::new(
            SimDialer::new(net),
            ClientConfig {
                read_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        );
        let url = Url::parse("http://silent.on.aws/").unwrap();
        match client.get_url(addr, &url) {
            Err(FetchError::Http(e)) => assert!(e.is_timeout(), "{e:?}"),
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
