//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for the
//! job service and its load generator, with no external dependencies.
//!
//! Server side: [`read_request`] parses one request (request line, headers,
//! `Content-Length` body) from a stream; [`write_response`] emits one
//! response. Client side: [`send_request`] writes a request and parses the
//! response, so the load generator and the tests speak the same dialect.
//! Persistent connections are supported (HTTP/1.1 keep-alive semantics);
//! chunked transfer encoding is not — every body carries an explicit
//! `Content-Length`, which keeps framing trivial and deterministic. Both
//! sides send each message, head and body, with one write, so a keep-alive
//! exchange never waits for the peer's delayed ACK.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request or response body (`.bench` uploads included).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query strings are kept verbatim).
    pub path: String,
    /// Lowercased header names with their values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read bytes until the `\r\n\r\n` head terminator, returning the head and
/// any body bytes already consumed. `Ok(None)` means the peer closed the
/// connection cleanly before sending anything.
fn read_head(stream: &mut TcpStream) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_head_end(&buf) {
            let rest = buf.split_off(pos + 4);
            buf.truncate(pos);
            return Ok(Some((buf, rest)));
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn read_exact_body(stream: &mut TcpStream, mut body: Vec<u8>, len: usize) -> io::Result<Vec<u8>> {
    if len > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    body.truncate(body.len().min(len));
    let mut remaining = len - body.len();
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        let n = stream.read(&mut chunk[..remaining.min(4096)])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(body)
}

/// Read and parse one request from the stream. `Ok(None)` means the peer
/// closed the connection cleanly between requests (normal keep-alive end).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let Some((head, early_body)) = read_head(stream)? else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_ascii_uppercase(), p.to_string(), v),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ))
        }
    };
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed header line",
            ));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    let body = read_exact_body(stream, early_body, content_length)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    }))
}

/// Standard reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write one response with an explicit `Content-Length`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    write_message(stream, head, body)
}

/// Send one message (head and body) with a single write. Written as two,
/// the body is a second small segment that Nagle's algorithm (RFC 896)
/// holds until the peer acknowledges the head, and a peer that delays its
/// ACK (RFC 1122 §4.2.3.2) stalls every keep-alive exchange by ~40 ms.
fn write_message(stream: &mut TcpStream, head: String, body: &[u8]) -> io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A parsed client-side response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Client side: write one request over an open connection and read the
/// response. The connection stays usable for further requests (keep-alive).
pub fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<Response> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: fbt-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len(),
    );
    write_message(stream, head, body)?;
    let Some((head, early_body)) = read_head(stream)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    };
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let body = read_exact_body(stream, early_body, content_length)?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// Round-trip a request and a response over a real socket pair.
    #[test]
    fn request_and_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/circuits");
            assert_eq!(req.body_text(), "INPUT(a)\n");
            assert!(req.keep_alive);
            write_response(&mut stream, 201, "application/json", b"{\"ok\":true}", true).unwrap();
            // Second request on the same connection.
            let req = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req.method, "GET");
            write_response(&mut stream, 200, "application/json", b"{}", false).unwrap();
            // Clean close between requests reads as None.
            assert!(read_request(&mut stream).unwrap().is_none());
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let resp = send_request(&mut stream, "POST", "/circuits", b"INPUT(a)\n").unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.body_text(), "{\"ok\":true}");
        let resp = send_request(&mut stream, "GET", "/health", b"").unwrap();
        assert_eq!(resp.status, 200);
        drop(stream);
        server.join().unwrap();
    }

    /// Keep-alive exchanges with bodies both ways must not wait for a
    /// delayed ACK: 20 round trips take far less than one ~40 ms stall each.
    #[test]
    fn keep_alive_round_trips_do_not_stall() {
        const ROUND_TRIPS: usize = 20;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while let Some(req) = read_request(&mut stream).unwrap() {
                write_response(&mut stream, 200, "text/plain", &req.body, true).unwrap();
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        for i in 0..ROUND_TRIPS {
            let body = format!("ping {i}");
            let resp = send_request(&mut stream, "POST", "/echo", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_text(), body);
        }
        let elapsed = t0.elapsed();
        drop(stream);
        server.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(200),
            "{ROUND_TRIPS} keep-alive round trips took {elapsed:?}"
        );
    }

    #[test]
    fn oversized_head_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let garbage = vec![b'x'; MAX_HEAD + 1024];
        let _ = stream.write_all(&garbage);
        let _ = stream.flush();
        drop(stream);
        let err = server.join().unwrap();
        assert!(err.is_err());
    }
}
