//! Server-side serve loop.
//!
//! [`serve_connection`] reads requests off one connection and answers them
//! with a handler until the peer closes, an error occurs, or the exchange
//! negotiates `Connection: close`. The simulated cloud ingress uses this
//! (fronted by simulated TLS on :443); `examples/live_probe.rs` runs it
//! on a real `TcpListener`. Requests are
//! read with [`crate::fast`] into one [`Scratch`] per connection, so
//! read-ahead is carried between requests and pipelined requests are
//! answered in order.

use crate::fast::{read_request_fast, Scratch};
use crate::parse::{write_response, HttpError, Limits};
use crate::types::{Request, Response};
use fw_net::Connection;

/// Per-request handler.
pub type RequestHandler = dyn Fn(&Request) -> Response + Send + Sync;

/// Statistics for one connection's serve loop.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    pub requests: u64,
    pub parse_errors: u64,
}

/// Serve requests on `conn` until close. Returns per-connection stats.
pub fn serve_connection(
    conn: &mut dyn Connection,
    limits: &Limits,
    handler: &RequestHandler,
) -> ServeStats {
    let mut stats = ServeStats::default();
    let mut scratch = Scratch::new();
    loop {
        let req = match read_request_fast(conn, &mut scratch, limits) {
            Ok(r) => r,
            Err(HttpError::Eof) | Err(HttpError::Io(_)) => break,
            Err(HttpError::Parse(_)) | Err(HttpError::TooLarge(_)) => {
                stats.parse_errors += 1;
                let _ = write_response(conn, &Response::new(400));
                break;
            }
        };
        stats.requests += 1;
        let mut resp = handler(&scratch.to_request(&req));
        if req.close {
            resp.headers.set("Connection", "close");
        }
        if write_response(conn, &resp).is_err() {
            break;
        }
        if req.close {
            break;
        }
    }
    conn.shutdown_write();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::read_response_fast;
    use crate::parse::write_request;
    use crate::types::{Method, Request};
    use fw_net::pipe_pair;

    fn pair() -> (fw_net::PipeConn, fw_net::PipeConn) {
        pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        )
    }

    fn echo_path_handler(req: &Request) -> Response {
        Response::text(200, req.path())
    }

    /// Read the next response off the client end.
    fn response(client: &mut fw_net::PipeConn, scratch: &mut Scratch) -> Response {
        let resp = read_response_fast(client, scratch, &Limits::default(), false).unwrap();
        scratch.to_response(&resp)
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        let mut scratch = Scratch::new();
        for path in ["/one", "/two", "/three"] {
            let req = Request::get(path, "h.example");
            write_request(&mut client, &req).unwrap();
            assert_eq!(response(&mut client, &mut scratch).body_text(), path);
        }
        drop(client);
        let stats = srv.join().unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.parse_errors, 0);
    }

    #[test]
    fn connection_close_ends_loop() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        let mut req = Request::get("/only", "h.example");
        req.headers.insert("Connection", "close");
        write_request(&mut client, &req).unwrap();
        let resp = response(&mut client, &mut Scratch::new());
        assert_eq!(resp.body_text(), "/only");
        assert_eq!(resp.headers.get("connection"), Some("close"));
        let stats = srv.join().unwrap();
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        client.write_all(b"GARBAGE REQUEST LINE\r\n\r\n").unwrap();
        let resp = response(&mut client, &mut Scratch::new());
        assert_eq!(resp.status, 400);
        let stats = srv.join().unwrap();
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn post_body_reaches_handler() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &|req: &Request| {
                Response::text(200, &format!("got {} bytes", req.body.len()))
            })
        });
        let mut req = Request::get("/upload", "h.example");
        req.method = Method::Post;
        req.body = vec![b'x'; 512];
        req.headers.insert("Connection", "close");
        write_request(&mut client, &req).unwrap();
        let resp = response(&mut client, &mut Scratch::new());
        assert_eq!(resp.body_text(), "got 512 bytes");
        srv.join().unwrap();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut scratch = Scratch::new();
        assert_eq!(response(&mut client, &mut scratch).body_text(), "/a");
        assert_eq!(response(&mut client, &mut scratch).body_text(), "/b");
        assert_eq!(srv.join().unwrap().requests, 2);
    }
}
