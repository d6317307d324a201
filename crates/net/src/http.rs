//! HTTP/1.1 wire types and parsing for the event-loop server.
//!
//! [`RequestBuffer`] is an **incremental** parser for the nonblocking
//! reactor: feed it bytes as they arrive, get complete requests out.
//! Pipelined requests queue up naturally; header-size and body-size
//! caps are enforced as bytes accumulate (slowloris can't buffer-bloat).
//!
//! Responses serialize with `Connection: keep-alive`, or with
//! `Connection: close` when the client or a drain asks for it. The
//! blocking [`client_request`] and the [`ClientConn`] keep-alive client
//! feed the CLI, the load generator and the tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on accepted request bodies (64 MiB) — a registry POST
/// carrying an explicit edge list is the largest legitimate payload.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Upper bound on the request head (request line + headers). 64 KiB is
/// far above anything the service's own clients send; the cap exists so
/// a drip-feeding client cannot grow a connection buffer without bound.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Size caps applied while parsing a request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Max bytes of request line + headers before 431.
    pub max_header_bytes: usize,
    /// Max declared body bytes before 413.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: MAX_HEADER_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string, e.g. `/graphs/web-1`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Lower-cased header names and their values.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open afterwards
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path split into non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Body interpreted as UTF-8.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::bad_request("body is not UTF-8"))
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Content type; the service always answers JSON.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body into one buffer. The
    /// reactor writes this buffer out as the socket drains.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        let mut out = Vec::with_capacity(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Error while reading or parsing a request.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// Status code the error maps to.
    pub status: u16,
    /// Description sent back to the client.
    pub message: String,
}

impl HttpError {
    /// 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// 408: the client stalled past the read deadline.
    pub fn timeout() -> Self {
        Self {
            status: 408,
            message: "timed out reading request".into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http {}: {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// Decodes `%xx` escapes and `+` spaces.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok());
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded key/value pairs.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Parses the request head (everything before the blank line) into a
/// [`Request`] with an empty body, returning the declared body length.
fn parse_head(head: &str) -> Result<(Request, usize), HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = match lines.next() {
        Some(line) if !line.trim().is_empty() => line,
        _ => return Err(HttpError::bad_request("empty request line")),
    };
    let mut parts = request_line.split_whitespace();
    let method = match parts.next() {
        Some(m) => m.to_ascii_uppercase(),
        None => return Err(HttpError::bad_request("empty request line")),
    };
    let target = match parts.next() {
        Some(t) => t,
        None => return Err(HttpError::bad_request("missing request target")),
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad_request(format!(
            "unsupported version {version}"
        )));
    }
    let http11 = version != "HTTP/1.0";

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11; // 1.1 defaults to keep-alive
    for line in lines {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "transfer-encoding" {
                // This parser only frames bodies by Content-Length.
                // Silently ignoring Transfer-Encoding would leave the
                // chunk framing in the buffer to be parsed as the next
                // pipelined request — a request-desync/smuggling
                // primitive behind a proxy. Refuse outright.
                return Err(HttpError {
                    status: 501,
                    message: "Transfer-Encoding is not supported".into(),
                });
            }
            if name == "content-length" {
                let parsed: usize = value
                    .parse()
                    .map_err(|_| HttpError::bad_request("bad Content-Length"))?;
                // Duplicate Content-Length headers with differing
                // values are the other classic desync vector; last-wins
                // silently picks a framing the peer may not share.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::bad_request("conflicting Content-Length headers"));
                }
                content_length = Some(parsed);
            }
            if name == "connection" {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            headers.push((name, value));
        }
    }

    Ok((
        Request {
            method,
            path: percent_decode(path_raw),
            query: parse_query(query_raw),
            headers,
            body: Vec::new(),
            keep_alive,
        },
        content_length.unwrap_or(0),
    ))
}

/// Incremental request parser: an accumulation buffer plus a cursor so
/// repeated scans for the head terminator stay linear under drip feeds.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// Bytes already scanned for `\r\n\r\n` without finding it.
    scanned: usize,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when bytes are buffered but no complete request has been
    /// extracted yet — the signal that a header-read deadline applies.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to extract one complete request. `Ok(None)` means more
    /// bytes are needed; errors are terminal for the connection.
    pub fn try_next(&mut self, limits: &HttpLimits) -> Result<Option<Request>, HttpError> {
        // Find the head terminator, resuming where the last scan ended.
        let start = self.scanned.saturating_sub(3);
        let head_end = self.buf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| start + p);
        let Some(head_end) = head_end else {
            self.scanned = self.buf.len();
            if self.buf.len() > limits.max_header_bytes {
                return Err(HttpError {
                    status: 431,
                    message: format!("request head exceeds {} bytes", limits.max_header_bytes),
                });
            }
            return Ok(None);
        };
        if head_end > limits.max_header_bytes {
            return Err(HttpError {
                status: 431,
                message: format!("request head exceeds {} bytes", limits.max_header_bytes),
            });
        }
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let (mut request, content_length) = parse_head(&head)?;
        if content_length > limits.max_body_bytes {
            return Err(HttpError {
                status: 413,
                message: "body too large".into(),
            });
        }
        let body_start = head_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(None); // waiting on body bytes
        }
        request.body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        self.scanned = 0;
        Ok(Some(request))
    }
}

/// Minimal blocking HTTP client: sends one request on a fresh
/// connection, reads the full response. Shared by `gve client` and the
/// integration tests.
pub fn client_request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
) -> Result<(u16, String), std::io::Error> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let body_bytes = body.map(str::as_bytes).unwrap_or(&[]);
    write!(
        stream,
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body_bytes.len()
    )?;
    stream.write_all(body_bytes)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    read_response(&mut reader, true)
}

/// Reads one `status, body` response pair from a buffered stream.
/// `to_end` additionally drains length-less bodies until EOF (only
/// valid on `Connection: close` streams).
fn read_response(
    reader: &mut BufReader<TcpStream>,
    to_end: bool,
) -> Result<(u16, String), std::io::Error> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if status_line.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            reader.read_exact(&mut body)?;
        }
        None if to_end => {
            reader.read_to_end(&mut body)?;
        }
        None => {}
    }
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// A persistent keep-alive HTTP/1.1 client connection. The load
/// generator keeps one per simulated client so request throughput
/// measures the server, not TCP handshakes.
pub struct ClientConn {
    reader: BufReader<TcpStream>,
    addr: String,
}

impl ClientConn {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs + ToString) -> Result<ClientConn, std::io::Error> {
        let stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(ClientConn {
            reader: BufReader::new(stream),
            addr: addr.to_string(),
        })
    }

    /// Sends one request on the persistent connection and reads the
    /// response. The connection stays open for the next call.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), std::io::Error> {
        let body_bytes = body.map(str::as_bytes).unwrap_or(&[]);
        let addr = &self.addr;
        let stream = self.reader.get_mut();
        write!(
            stream,
            "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body_bytes.len()
        )?;
        stream.write_all(body_bytes)?;
        stream.flush()?;
        read_response(&mut self.reader, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(parser: &mut RequestBuffer, bytes: &[u8]) -> Option<Request> {
        parser.extend(bytes);
        parser.try_next(&HttpLimits::default()).unwrap()
    }

    #[test]
    fn incremental_parse_across_fragments() {
        let mut parser = RequestBuffer::new();
        assert!(feed(&mut parser, b"POST /echo%20path?x=1+2 HT").is_none());
        assert!(feed(&mut parser, b"TP/1.1\r\nContent-Length: 5\r\n").is_none());
        assert!(feed(&mut parser, b"\r\nhel").is_none());
        let request = feed(&mut parser, b"lo").expect("complete request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/echo path");
        assert_eq!(request.query_param("x"), Some("1 2"));
        assert_eq!(request.body, b"hello");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(parser.is_empty());
    }

    #[test]
    fn segments_split_paths() {
        let req = Request {
            method: "GET".into(),
            path: "/graphs/web-1/communities/3".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
            keep_alive: false,
        };
        assert_eq!(req.segments(), vec!["graphs", "web-1", "communities", "3"]);
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut parser = RequestBuffer::new();
        parser.extend(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let limits = HttpLimits::default();
        let a = parser.try_next(&limits).unwrap().expect("first");
        let b = parser.try_next(&limits).unwrap().expect("second");
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(a.keep_alive);
        assert!(!b.keep_alive, "Connection: close honored");
        assert!(parser.try_next(&limits).unwrap().is_none());
    }

    #[test]
    fn header_cap_truncates_slowloris() {
        let mut parser = RequestBuffer::new();
        let limits = HttpLimits {
            max_header_bytes: 128,
            max_body_bytes: 1024,
        };
        parser.extend(b"GET / HTTP/1.1\r\n");
        for _ in 0..40 {
            parser.extend(b"X-Pad: aaaaaaaa\r\n");
            match parser.try_next(&limits) {
                Ok(None) => continue,
                Err(e) => {
                    assert_eq!(e.status, 431);
                    return;
                }
                Ok(Some(_)) => panic!("incomplete head parsed"),
            }
        }
        panic!("header cap never tripped");
    }

    #[test]
    fn oversized_body_is_413_and_http10_defaults_to_close() {
        let mut parser = RequestBuffer::new();
        let limits = HttpLimits {
            max_header_bytes: 1024,
            max_body_bytes: 10,
        };
        parser.extend(b"POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
        assert_eq!(parser.try_next(&limits).unwrap_err().status, 413);

        let mut parser = RequestBuffer::new();
        parser.extend(b"GET / HTTP/1.0\r\n\r\n");
        let request = parser
            .try_next(&HttpLimits::default())
            .unwrap()
            .expect("complete");
        assert!(!request.keep_alive, "HTTP/1.0 defaults to close");
    }

    /// Desync guards: a chunked request must be refused (501), not
    /// parsed body-less with its chunk framing left in the buffer as a
    /// phantom pipelined request; conflicting duplicate Content-Length
    /// headers must be refused (400) rather than resolved last-wins.
    #[test]
    fn transfer_encoding_and_conflicting_lengths_are_rejected() {
        let limits = HttpLimits::default();
        let mut parser = RequestBuffer::new();
        parser.extend(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n",
        );
        assert_eq!(parser.try_next(&limits).unwrap_err().status, 501);

        let mut parser = RequestBuffer::new();
        parser.extend(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello");
        assert_eq!(parser.try_next(&limits).unwrap_err().status, 400);

        // Repeated but agreeing Content-Length headers stay accepted.
        let mut parser = RequestBuffer::new();
        parser.extend(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello");
        let request = parser.try_next(&limits).unwrap().expect("complete");
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn serialize_marks_connection_mode() {
        let response = Response::json(200, "{}");
        let keep = String::from_utf8(response.serialize(true)).unwrap();
        let close = String::from_utf8(response.serialize(false)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(close.contains("Connection: close\r\n"), "{close}");
        assert!(keep.contains("Content-Length: 2\r\n"));
    }

    #[test]
    fn reasons_cover_timeout_and_header_cap() {
        assert!(
            String::from_utf8(Response::json(408, "{}").serialize(false))
                .unwrap()
                .starts_with("HTTP/1.1 408 Request Timeout")
        );
        assert!(
            String::from_utf8(Response::json(431, "{}").serialize(false))
                .unwrap()
                .starts_with("HTTP/1.1 431 Request Header Fields Too Large")
        );
    }
}
