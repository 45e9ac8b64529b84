//! Blocking HTTP client over pluggable transports.
//!
//! The [`Dialer`] trait abstracts how a socket to `(address, SNI)` is
//! opened: [`SimDialer`] goes through the simulated internet (with
//! simulated TLS on port 443), [`TcpDialer`] opens real TCP sockets. The
//! prober composes this client with DNS resolution and its ethics policy.
//!
//! Every exchange is a [`Flight`]: a [`Batch`] of requests written to one
//! connection in one transport write and answered in order (HTTP/1.1
//! pipelining); [`HttpClient::send`] is a flight of one.

use crate::fast::{read_response_fast, Scratch};
use crate::parse::{render_request, HttpError, Limits};
use crate::types::{Method, Request, Response};
use crate::url::Url;
use fw_net::tcp::TcpConn;
use fw_net::{Connection, SimNet, TlsClient, TlsError};
use std::borrow::Borrow;
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// `User-Agent` of every probe: it names the research probe (§3.3).
const USER_AGENT: &str = "faaswild-probe/0.1 (research; opt-out: see probe host)";

/// Client configuration. The 60-second default timeout follows the paper
/// (§3.3, "a uniform timeout of 60 seconds was applied").
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub read_timeout: Duration,
    pub limits: Limits,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            limits: Limits::default(),
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

/// Most request bytes one flight writes. Far below SimNet's 256 KiB
/// pipe, so the client's single write never blocks while the server
/// blocks writing answers the client is not reading yet.
const FLIGHT_BYTES: usize = 64 * 1024;

/// Requests rendered once to wire bytes (collect them into one), sent by
/// [`HttpClient::flight`]. One batch can be flown at several targets
/// (the C2 scanner flies its corpus at :443, then :80).
#[derive(Debug, Default)]
pub struct Batch {
    wire: Vec<u8>,
    msgs: Vec<Msg>,
}

/// Where one request of a [`Batch`] ends, and what reading its answer
/// needs.
#[derive(Debug, Clone, Copy)]
struct Msg {
    end: usize,
    head: bool,
    close: bool,
}

impl Batch {
    /// Render `req` after the requests already in the batch.
    fn push(&mut self, req: &Request) {
        render_request(&mut self.wire, req);
        self.msgs.push(Msg {
            end: self.wire.len(),
            head: req.method == Method::Head,
            close: request_wants_close(req),
        });
    }

    fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Byte offset at which request `i` starts.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.msgs[p].end)
    }

    /// One past the last request of the flight that starts at `i`: the
    /// longest run of keep-alive requests that fits in [`FLIGHT_BYTES`],
    /// and never less than `i` itself. A `Connection: close` request
    /// ends the run before it and flies alone.
    fn flight_end(&self, i: usize) -> usize {
        let mut end = i + 1;
        if self.msgs[i].close {
            return end;
        }
        let base = self.start(i);
        while end < self.msgs.len()
            && !self.msgs[end].close
            && self.msgs[end].end - base <= FLIGHT_BYTES
        {
            end += 1;
        }
        end
    }
}

impl<R: Borrow<Request>> FromIterator<R> for Batch {
    fn from_iter<I: IntoIterator<Item = R>>(reqs: I) -> Batch {
        let mut batch = Batch::default();
        for req in reqs {
            batch.push(req.borrow());
        }
        batch
    }
}

/// The blocking HTTP client.
///
/// Its one exchange path is the *flight* ([`HttpClient::flight`]): a run
/// of keep-alive requests written to one connection in a single
/// transport write, whose responses are then read back in order
/// (HTTP/1.1 pipelining). [`HttpClient::send`] is a flight of one.
///
/// Holds one keep-alive slot: after an exchange whose request *and*
/// response both permit reuse (no `Connection: close`, self-delimiting
/// body framing), the connection is parked and the next flight to the
/// same `(addr, host, tls)` starts on it instead of dialing. The
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
    req.headers.contains_token("connection", "close")
}

/// May the connection be reused after this exchange? True only when the
/// response body was self-delimiting (Content-Length, chunked, or
/// bodiless status) — a read-to-EOF body consumes the connection — and
/// the server did not ask to close.
fn response_permits_reuse(head: bool, resp: &Response) -> bool {
    if resp.headers.contains_token("connection", "close") {
        return false;
    }
    head || resp.status == 204
        || resp.status == 304
        || resp.headers.get("content-length").is_some()
        || resp.headers.contains_token("transfer-encoding", "chunked")
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

    /// Send every request of `batch` to `addr` (resolved separately —
    /// the prober owns DNS) and yield their outcomes in order. `host`
    /// names the server being contacted; `tls` switches TLS (with
    /// `host` as SNI) on.
    ///
    /// Each request gets exactly the outcome a loop of [`Self::send`]
    /// would give it, with the same dials, as long as nothing else uses
    /// the client while the flight is alive (see [`Flight`]).
    pub fn flight<'a>(
        &'a self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        batch: &'a Batch,
    ) -> Flight<'a, D> {
        Flight {
            client: self,
            key: (addr, host.to_string(), tls),
            batch,
            next: 0,
            live: None,
        }
    }

    /// Issue `req` to `addr` as a flight of one.
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
        let batch: Batch = std::iter::once(req).collect();
        self.flight(addr, host, tls, &batch)
            .next()
            .expect("a flight yields one outcome per request")
    }

    /// Parameter-free GET of a URL against a resolved address — the §3.3
    /// probe shape: `User-Agent` identifies the research probe.
    pub fn get_url(&self, addr: SocketAddr, url: &Url) -> Result<Response, FetchError> {
        let mut req = Request::get(&url.target(), &url.host);
        req.headers.insert("User-Agent", USER_AGENT);
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

/// The outcomes of a [`Batch`] flown by [`HttpClient::flight`], in
/// request order.
///
/// A flight writes the longest keep-alive run that fits in 64 KiB to
/// one connection, then reads the answers one per [`Iterator::next`]. A failed read, or an answer that forbids reuse,
/// drops the connection together with the requests written after it;
/// the next outcome asked for starts a new flight with them. A failure
/// on a reused connection retries that request on one fresh dial, like
/// `send`. Nothing is written before the caller asks for an outcome no
/// connection carries, so a caller that stops early sends no more
/// flights; dropping a `Flight` with answers still unread closes their
/// connection.
///
/// While answers are unread the flight holds its connection itself, so
/// other sends through the same client cannot displace it from the
/// keep-alive slot; once they are read it parks it there.
pub struct Flight<'a, D: Dialer> {
    client: &'a HttpClient<D>,
    key: ConnKey,
    batch: &'a Batch,
    /// The next request to yield an outcome for.
    next: usize,
    /// A connection carrying requests `next..sent`, written and not yet
    /// answered, with `sent`.
    live: Option<(Parked, usize)>,
}

impl<D: Dialer> Iterator for Flight<'_, D> {
    type Item = Result<Response, FetchError>;

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.next;
        if i == self.batch.len() {
            return None;
        }
        self.next += 1;
        Some(self.outcome(i))
    }
}

impl<D: Dialer> Flight<'_, D> {
    /// Request `i`'s outcome: read on the connection carrying it, else
    /// on the parked one, else on a fresh dial.
    fn outcome(&mut self, i: usize) -> Result<Response, FetchError> {
        let carried = match self.live.take() {
            Some(live) => Some(live),
            None if !self.batch.msgs[i].close => {
                self.client.take_pooled(&self.key).map(|parked| (parked, i))
            }
            None => None,
        };
        if let Some((mut parked, sent)) = carried {
            match self.exchange(&mut parked, sent, i) {
                Ok((resp, sent)) => {
                    fw_obs::counter_inc!("fw.http.conn.reused");
                    self.settle(parked, sent, i, &resp);
                    return Ok(resp);
                }
                Err(_) => {
                    // Server closed the connection (or the exchange died
                    // mid-stream): drop it, with every request written
                    // after `i`, and retry `i` on a fresh dial below.
                    fw_obs::counter_inc!("fw.http.conn.reuse_failed");
                }
            }
        }

        let (addr, host, tls) = (self.key.0, self.key.1.as_str(), self.key.2);
        let timeout = self.client.config.read_timeout;
        let mut conn = self
            .client
            .dialer
            .dial(addr, host, tls, timeout)
            .map_err(FetchError::Dial)?;
        fw_obs::counter_inc!("fw.http.conn.dialed");
        conn.set_read_timeout(Some(timeout))
            .map_err(|e| FetchError::Http(HttpError::Io(e)))?;
        let mut parked = Parked {
            conn,
            scratch: Scratch::new(),
        };
        let (resp, sent) = self.exchange(&mut parked, i, i).map_err(FetchError::Http)?;
        self.settle(parked, sent, i, &resp);
        Ok(resp)
    }

    /// Read request `i`'s response on `parked`, which carries requests
    /// `i..sent`; when it carries none (`sent == i`), first write the
    /// flight that starts at `i`. Returns the response and the new
    /// `sent`.
    fn exchange(
        &self,
        parked: &mut Parked,
        mut sent: usize,
        i: usize,
    ) -> Result<(Response, usize), HttpError> {
        if sent == i {
            sent = self.batch.flight_end(i);
            let bytes = &self.batch.wire[self.batch.start(i)..self.batch.start(sent)];
            parked.conn.write_all(bytes)?;
            if sent - i > 1 {
                fw_obs::counter_add!("fw.http.pipelined", sent - i);
            }
        }
        let resp = read_response_fast(
            parked.conn.as_mut(),
            &mut parked.scratch,
            &self.client.config.limits,
            self.batch.msgs[i].head,
        )?;
        Ok((parked.scratch.to_response(&resp), sent))
    }

    /// After request `i`'s response: keep the connection for the
    /// requests still in flight on it, or park it when none are. When
    /// the exchange forbids reuse, drop it; the requests written after
    /// `i` then start a new flight.
    fn settle(&mut self, parked: Parked, sent: usize, i: usize, resp: &Response) {
        let msg = self.batch.msgs[i];
        if msg.close || !response_permits_reuse(msg.head, resp) {
            return;
        }
        if sent > i + 1 {
            self.live = Some((parked, sent));
        } else {
            self.client.park(self.key.clone(), parked);
        }
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
    fn close_is_a_connection_token_not_the_whole_value() {
        let mut req = Request::get("/", "fn.on.aws");
        req.headers.insert("Connection", "keep-alive, close");
        assert!(request_wants_close(&req));
        let mut req = Request::get("/", "fn.on.aws");
        req.headers.insert("Connection", "keep-alive");
        req.headers.insert("Connection", "Close");
        assert!(request_wants_close(&req), "every Connection header counts");

        let mut resp = Response::text(200, "ok");
        resp.headers.insert("Content-Length", "2");
        assert!(response_permits_reuse(false, &resp));
        resp.headers.insert("Connection", "Close, x");
        assert!(!response_permits_reuse(false, &resp));
    }

    /// A peer that answers every request on a connection, never closes
    /// it, and never says `Connection: close` (whatever it is asked):
    /// only the client's own reading of the headers decides reuse.
    fn stubborn_peer(net: &SimNet, addr: SocketAddr, close_reply: Option<&'static str>) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let conns = Arc::new(AtomicUsize::new(0));
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                let c = conns.fetch_add(1, Ordering::SeqCst);
                let mut scratch = Scratch::new();
                while next_request(conn.as_mut(), &mut scratch).is_ok() {
                    let mut resp = Response::text(200, &format!("conn {c}"));
                    if let Some(v) = close_reply {
                        resp.headers.insert("Connection", v);
                    }
                    if write_response(conn.as_mut(), &resp).is_err() {
                        return;
                    }
                }
            }),
        );
    }

    #[test]
    fn close_token_in_a_request_list_bypasses_the_pool() {
        let net = SimNet::new(10);
        let addr: SocketAddr = "203.0.113.26:80".parse().unwrap();
        stubborn_peer(&net, addr, None);
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let mut req = Request::get("/", "fn.on.aws");
        req.headers.insert("Connection", "keep-alive, close");
        let bodies: Vec<String> = (0..3)
            .map(|_| {
                let resp = client.send(addr, "fn.on.aws", false, &req).unwrap();
                resp.body_text()
            })
            .collect();
        assert_eq!(bodies, ["conn 0", "conn 1", "conn 2"]);
    }

    #[test]
    fn close_token_in_a_response_list_forbids_reuse() {
        let net = SimNet::new(11);
        let addr: SocketAddr = "203.0.113.27:80".parse().unwrap();
        stubborn_peer(&net, addr, Some("Close, x"));
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let req = Request::get("/", "fn.on.aws");
        let bodies: Vec<String> = (0..3)
            .map(|_| {
                let resp = client.send(addr, "fn.on.aws", false, &req).unwrap();
                resp.body_text()
            })
            .collect();
        assert_eq!(bodies, ["conn 0", "conn 1", "conn 2"]);
    }

    /// Shared counts of a [`Tally`]ing dialer: dials made and the size
    /// of every write the client issued.
    #[derive(Clone, Default)]
    struct Tally {
        dials: Arc<std::sync::atomic::AtomicUsize>,
        writes: Arc<Mutex<Vec<usize>>>,
    }

    /// A [`SimDialer`] that counts into a [`Tally`].
    struct TallyDialer {
        inner: SimDialer,
        tally: Tally,
    }

    impl Dialer for TallyDialer {
        fn dial(
            &self,
            addr: SocketAddr,
            host: &str,
            tls: bool,
            timeout: Duration,
        ) -> Result<Box<dyn Connection>, DialError> {
            self.tally
                .dials
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let conn = self.inner.dial(addr, host, tls, timeout)?;
            Ok(Box::new(Tallied {
                conn,
                writes: self.tally.writes.clone(),
            }))
        }
    }

    #[derive(Debug)]
    struct Tallied {
        conn: Box<dyn Connection>,
        writes: Arc<Mutex<Vec<usize>>>,
    }

    impl Connection for Tallied {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.writes.lock().unwrap().push(buf.len());
            self.conn.write_all(buf)
        }
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.conn.read(buf)
        }
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            self.conn.set_read_timeout(timeout)
        }
        fn shutdown_write(&mut self) {
            self.conn.shutdown_write()
        }
        fn peer_addr(&self) -> SocketAddr {
            self.conn.peer_addr()
        }
    }

    fn tally_client(net: SimNet, read_timeout: Duration) -> (HttpClient<TallyDialer>, Tally) {
        let tally = Tally::default();
        let dialer = TallyDialer {
            inner: SimDialer::new(net),
            tally: tally.clone(),
        };
        let config = ClientConfig {
            read_timeout,
            ..ClientConfig::default()
        };
        (HttpClient::new(dialer, config), tally)
    }

    #[test]
    fn flights_stay_within_the_byte_bound() {
        let net = SimNet::new(12);
        let addr: SocketAddr = "203.0.113.28:80".parse().unwrap();
        net.listen_fn(addr, |mut conn| {
            serve_connection(conn.as_mut(), &Limits::default(), &|req: &Request| {
                Response::text(200, req.path())
            });
        });
        let (client, tally) = tally_client(net, Duration::from_secs(1));
        // 40 requests of ~3.1 KiB: about twice what one flight may carry.
        let reqs: Vec<Request> = (0..40)
            .map(|i| {
                let mut req = Request::get(&format!("/r{i}"), "bulk.on.aws");
                req.headers.insert("X-Pad", "p".repeat(3000));
                req
            })
            .collect();
        let batch: Batch = reqs.iter().collect();
        assert!(batch.wire.len() > FLIGHT_BYTES);
        let paths: Vec<String> = client
            .flight(addr, "bulk.on.aws", false, &batch)
            .map(|r| r.unwrap().body_text())
            .collect();
        let want: Vec<String> = (0..40).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, want);
        assert_eq!(tally.dials.load(std::sync::atomic::Ordering::SeqCst), 1);
        let writes = tally.writes.lock().unwrap().clone();
        assert!(writes.len() >= 2, "{writes:?}");
        assert!(writes.iter().all(|&n| n <= FLIGHT_BYTES), "{writes:?}");
        assert_eq!(writes.iter().sum::<usize>(), batch.wire.len());
    }

    /// What a scripted peer does with request #k of each connection
    /// (#0 is a connection's first request). Requests that ask for
    /// `Connection: close` are answered with it, and the peer hangs up.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Script {
        AnswerAll,
        /// Hang up on request #k without answering it.
        CloseAt(usize),
        /// Never answer #k: sleep past the client's timeout, hang up.
        SilentAt(usize),
        /// Answer #k with bytes that are not HTTP, then hang up.
        GarbageAt(usize),
        /// Answer #k with `Connection: close`, then keep serving.
        CloseHeaderAt(usize),
        /// Nothing listens: every dial is refused.
        Refuse,
    }

    const HOST: &str = "scripted.on.aws";

    /// A fresh network with a [`Script`]ed peer. Every answer names its
    /// connection (in accept order), its position on it and its path.
    fn scripted(script: Script) -> (SimNet, SocketAddr) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(13);
        let addr: SocketAddr = "203.0.113.29:80".parse().unwrap();
        if script == Script::Refuse {
            return (net, addr);
        }
        let clock = net.clock().clone();
        let conns = Arc::new(AtomicUsize::new(0));
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                let c = conns.fetch_add(1, Ordering::SeqCst);
                let mut scratch = Scratch::new();
                for n in 0.. {
                    let Ok(req) =
                        read_request_fast(conn.as_mut(), &mut scratch, &Limits::default())
                    else {
                        return;
                    };
                    let body = format!("conn {c} #{n} {}", scratch.target(&req));
                    let mut resp = Response::text(200, &body);
                    match script {
                        Script::CloseAt(k) if n == k => return,
                        Script::SilentAt(k) if n == k => {
                            clock.sleep(Duration::from_millis(300));
                            return;
                        }
                        Script::GarbageAt(k) if n == k => {
                            let _ = conn.write_all(b"garbage\r\n\r\n");
                            return;
                        }
                        Script::CloseHeaderAt(k) if n == k => {
                            resp.headers.insert("Connection", "close");
                        }
                        _ => {}
                    }
                    if req.close {
                        resp.headers.set("Connection", "close");
                    }
                    if write_response(conn.as_mut(), &resp).is_err() || req.close {
                        return;
                    }
                }
            }),
        );
        (net, addr)
    }

    /// The first `take` outcomes of `reqs` against a [`Script`]ed peer,
    /// through one flight or a loop of `send`, and the dials made. With
    /// `pooled`, a warm-up `send` parks a connection first.
    fn drive(
        script: Script,
        reqs: &[Request],
        pooled: bool,
        take: usize,
        flight: bool,
    ) -> (Vec<String>, usize) {
        let (net, addr) = scripted(script);
        let (client, tally) = tally_client(net, Duration::from_millis(50));
        let summary = |r: Result<Response, FetchError>| match r {
            Ok(resp) => format!("{} {}", resp.status, resp.body_text()),
            Err(e) => format!("error: {e}"),
        };
        let mut outcomes = Vec::new();
        if pooled {
            let warm = client.send(addr, HOST, false, &Request::get("/warm", HOST));
            outcomes.push(summary(warm));
        }
        if flight {
            let batch: Batch = reqs.iter().collect();
            outcomes.extend(
                client
                    .flight(addr, HOST, false, &batch)
                    .take(take)
                    .map(summary),
            );
        } else {
            outcomes.extend(
                reqs[..take]
                    .iter()
                    .map(|req| summary(client.send(addr, HOST, false, req))),
            );
        }
        let dials = tally.dials.load(std::sync::atomic::Ordering::SeqCst);
        (outcomes, dials)
    }

    #[test]
    fn a_flight_gives_the_outcomes_of_a_send_loop() {
        let plain: Vec<Request> = (0..6)
            .map(|i| Request::get(&format!("/r{i}"), HOST))
            .collect();
        // Request 3 asks to close: it flies alone, beside the pool.
        let mut with_close = plain.clone();
        with_close[3]
            .headers
            .insert("Connection", "keep-alive, close");
        let scripts = [
            Script::AnswerAll,
            Script::CloseAt(0),
            Script::CloseAt(2),
            Script::SilentAt(0),
            Script::SilentAt(2),
            Script::GarbageAt(0),
            Script::GarbageAt(2),
            Script::CloseHeaderAt(0),
            Script::CloseHeaderAt(2),
            Script::Refuse,
        ];
        for script in scripts {
            for reqs in [&plain, &with_close] {
                for pooled in [false, true] {
                    for take in [0, 1, 3, 4, 6] {
                        let looped = drive(script, reqs, pooled, take, false);
                        let flown = drive(script, reqs, pooled, take, true);
                        assert_eq!(
                            flown,
                            looped,
                            "{script:?} pooled={pooled} take={take} close_at_3={}",
                            std::ptr::eq(reqs, &with_close)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flight_transcripts_against_scripted_peers() {
        // The equivalence above is only as strong as the scripts are
        // distinct: pin a few transcripts outright.
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request::get(&format!("/r{i}"), HOST))
            .collect();
        let (out, dials) = drive(Script::CloseAt(2), &reqs, false, 4, true);
        assert_eq!(
            out,
            [
                "200 conn 0 #0 /r0",
                "200 conn 0 #1 /r1",
                "200 conn 1 #0 /r2",
                "200 conn 1 #1 /r3"
            ]
        );
        assert_eq!(dials, 2);
        // #1 of every connection times out, and each time the one
        // re-dial answers it as #0 of the next connection.
        let (out, dials) = drive(Script::SilentAt(1), &reqs, false, 3, true);
        assert_eq!(
            out,
            [
                "200 conn 0 #0 /r0",
                "200 conn 1 #0 /r1",
                "200 conn 2 #0 /r2"
            ]
        );
        assert_eq!(dials, 3);
        let (out, _) = drive(Script::SilentAt(0), &reqs, false, 1, true);
        assert!(out[0].contains("timed out"), "{out:?}");
        let (out, dials) = drive(Script::GarbageAt(0), &reqs, false, 2, true);
        assert!(
            out.iter().all(|o| o.starts_with("error: http parse error")),
            "{out:?}"
        );
        assert_eq!(dials, 2);
        let (out, dials) = drive(Script::Refuse, &reqs, true, 2, true);
        assert!(out.iter().all(|o| o.contains("connect failed")), "{out:?}");
        assert_eq!(dials, 3);
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
