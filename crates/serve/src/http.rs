//! The workspace's one HTTP/1.1 module, over std sockets only. Every role
//! (the serve worker, the fleet front and the coordinator), the test
//! suites and the load generator speak HTTP through it:
//!
//! - **Parsing.** [`read_request`] and [`read_response`] share one line
//!   and header reader, so both sides enforce the same hard limits (line
//!   lengths, header count, body size) and both reject conflicting
//!   `Content-Length` headers (RFC 9112 §6.3). Header values are trimmed
//!   and header names are case-insensitive. The readers work on any
//!   [`BufRead`], which lets the proptest suite drive them on in-memory
//!   bytes.
//! - **Serving.** A [`Listener`] binds, accepts until its [`Shutdown`] is
//!   triggered, and hands each stream to the role; [`KeepAlive::serve`] is
//!   the request loop of every connection. Roles differ only in what they
//!   pass in: the handler, the idle timeout, and whether an accepted
//!   stream is queued or gets a thread of its own.
//! - **Calling.** [`HttpConn`] is a keep-alive client connection and
//!   [`request`] a one-shot exchange; both answer with a [`RawResponse`].

use std::borrow::Cow;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Maximum accepted request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 8192;
/// Maximum accepted header-line (and status-line) length in bytes.
pub const MAX_HEADER_LINE: usize = 8192;
/// Maximum accepted header count.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted body size in bytes (1 MiB).
pub const MAX_BODY: usize = 1 << 20;
/// Read and write timeout of client connections.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/v1/predict`.
    pub path: String,
    /// Headers as (lower-cased name, trimmed value) pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the client asked to close the connection after this request.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Why a message failed to parse.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed message — a request gets a `400` and the connection is
    /// closed.
    Bad(String),
    /// Message exceeded a size limit — `413`, connection closed.
    TooLarge(String),
    /// Transport-level failure (including read timeouts); no response is
    /// possible or warranted.
    Io(std::io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Bad(msg) => write!(f, "bad message: {msg}"),
            ParseError::TooLarge(msg) => write!(f, "message too large: {msg}"),
            ParseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// A client treats every parse failure as a dead connection.
impl From<ParseError> for std::io::Error {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Reads one line terminated by `\n`, enforcing `limit`. Returns the line
/// without the trailing `\r\n`/`\n`. `Ok(None)` signals clean EOF before any
/// byte arrived.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
    what: &str,
) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::with_capacity(128);
    if reader
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', &mut buf)?
        == 0
    {
        return Ok(None);
    }
    if buf.pop() != Some(b'\n') {
        return Err(if buf.len() >= limit {
            ParseError::TooLarge(format!("{what} exceeds {limit} bytes"))
        } else {
            ParseError::Bad(format!("unexpected eof in {what}"))
        });
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ParseError::Bad(format!("non-utf8 {what}")))
}

/// Header (lower-cased name, trimmed value) pairs, in arrival order.
type Headers = Vec<(String, String)>;

/// Reads the header block and the `Content-Length`-framed body that
/// follow a request or status line. Chunked transfer encoding is not
/// supported — no role in this workspace emits it.
fn read_headers_and_body(reader: &mut impl BufRead) -> Result<(Headers, Vec<u8>), ParseError> {
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(reader, MAX_HEADER_LINE, "header line")?
            .ok_or_else(|| ParseError::Bad("eof before end of headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Bad(format!("header without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Bad(format!("malformed header name: {name:?}")));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let n: usize = value
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad content-length: {value:?}")))?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(ParseError::Bad(
                    "conflicting content-length headers".to_string(),
                ));
            }
            content_length = Some(n);
        }
        headers.push((name, value));
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > MAX_BODY {
        return Err(ParseError::TooLarge(format!(
            "body of {body_len} bytes exceeds {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ParseError::Bad("truncated body".to_string()),
        _ => ParseError::Io(e),
    })?;
    Ok((headers, body))
}

/// Parses one request from `reader`. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive termination).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
    let request_line = match read_line(reader, MAX_REQUEST_LINE, "request line")? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| ParseError::Bad("missing or malformed method".to_string()))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| ParseError::Bad("missing or malformed target".to_string()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing http version".to_string()))?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(ParseError::Bad(format!("unsupported version {version:?}")));
    }
    if parts.next().is_some() {
        return Err(ParseError::Bad("extra tokens in request line".to_string()));
    }
    let (headers, body) = read_headers_and_body(reader)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct RawResponse {
    /// Status code.
    pub status: u16,
    /// Headers as (lower-cased name, trimmed value) pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length`; empty without one).
    pub body: Vec<u8>,
    /// Whether the server asked to close the connection.
    pub close: bool,
}

impl RawResponse {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as text, with invalid UTF-8 replaced.
    #[must_use]
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// Deserializes the JSON body.
    ///
    /// # Errors
    ///
    /// Non-UTF-8 or non-JSON bodies.
    pub fn json<T: DeserializeOwned>(&self) -> Result<T, String> {
        crate::api::parse_body(&self.body)
    }
}

/// Parses one response from `reader` with the same header and body rules
/// as [`read_request`].
///
/// # Errors
///
/// Transport failures, malformed framing, and over-limit messages, all as
/// `io::Error`.
pub fn read_response(reader: &mut impl BufRead) -> std::io::Result<RawResponse> {
    let status_line = read_line(reader, MAX_HEADER_LINE, "status line")?
        .ok_or_else(|| ParseError::Bad("eof before the status line".to_string()))?;
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(ParseError::Bad(format!("bad status line {status_line:?}")).into());
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|s| (100..=599).contains(s))
        .ok_or_else(|| ParseError::Bad(format!("bad status code in {status_line:?}")))?;
    let (headers, body) = read_headers_and_body(reader)?;
    let close =
        find_header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok(RawResponse {
        status,
        headers,
        body,
        close,
    })
}

/// Canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of `body`.
    pub content_type: &'static str,
    /// Extra headers (name, value) appended verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether to advertise and perform connection close.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// A JSON error envelope `{"error": ...}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&crate::api::ErrorBody {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
        Response::json(status, body)
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.extra_headers.push((name.to_string(), value));
        self
    }

    /// Marks the connection for close after this response.
    #[must_use]
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Serializes the response to `out` (status line, headers, body).
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        if self.close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        out.write_all(head.as_bytes())?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// `value` as a JSON response, or a 500 when it does not serialize.
#[must_use]
pub fn json_or_500<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => Response::error(500, &format!("serialization failed: {e}")),
    }
}

/// Stops a [`Listener`] and the connections it handed out. Clones share
/// one flag.
#[derive(Clone)]
pub struct Shutdown {
    triggered: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Shutdown {
    /// Starts shutdown: every connection closes after its next response,
    /// and the accept loop — blocked in `accept` — is woken by one
    /// connection to its own address, sees the flag and exits. Only the
    /// first call does anything.
    pub fn trigger(&self) {
        if !self.triggered.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether [`trigger`](Shutdown::trigger) has been called.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.triggered.load(Ordering::SeqCst)
    }
}

/// A bound socket whose accept loop runs until its [`Shutdown`] is
/// triggered.
pub struct Listener {
    socket: TcpListener,
    shutdown: Shutdown,
}

impl Listener {
    /// Binds `addr` (`host:port`; port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let socket = TcpListener::bind(addr)?;
        let shutdown = Shutdown {
            triggered: Arc::new(AtomicBool::new(false)),
            addr: socket.local_addr()?,
        };
        Ok(Self { socket, shutdown })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shutdown.addr
    }

    /// The handle that stops this listener.
    #[must_use]
    pub fn shutdown(&self) -> Shutdown {
        self.shutdown.clone()
    }

    /// The keep-alive policy for this listener's connections: counters
    /// named `{role}.requests` and `{role}.status.{code}`, and `idle` as
    /// the longest wait for a connection's next request.
    #[must_use]
    pub fn keep_alive(&self, role: &'static str, idle: Duration) -> KeepAlive {
        KeepAlive {
            role,
            idle: idle.max(Duration::from_millis(1)),
            shutdown: self.shutdown(),
        }
    }

    /// Spawns the accept thread `name`. It hands each accepted stream to
    /// `on_stream`, with TCP_NODELAY set (small JSON exchanges must not
    /// wait out Nagle plus a delayed ACK, a ~40 ms floor per round trip),
    /// until shutdown is triggered. The socket closes when the thread
    /// exits.
    ///
    /// # Panics
    ///
    /// When the thread cannot be spawned.
    pub fn spawn(
        self,
        name: &str,
        mut on_stream: impl FnMut(TcpStream) + Send + 'static,
    ) -> thread::JoinHandle<()> {
        thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for stream in self.socket.incoming() {
                    if self.shutdown.is_triggered() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    on_stream(stream);
                }
            })
            .expect("spawn accept thread")
    }

    /// Spawns the accept thread `{name}-accept`, which gives every
    /// connection a thread of its own (`{name}-conn`) serving the handler
    /// `make_handler` builds for it, with a 30 s idle timeout.
    ///
    /// # Panics
    ///
    /// When the accept thread cannot be spawned.
    pub fn spawn_threaded<H: FnMut(&Request) -> Response + Send + 'static>(
        self,
        name: &str,
        role: &'static str,
        mut make_handler: impl FnMut() -> H + Send + 'static,
    ) -> thread::JoinHandle<()> {
        let keep_alive = self.keep_alive(role, Duration::from_secs(30));
        let conn_name = format!("{name}-conn");
        self.spawn(&format!("{name}-accept"), move |stream| {
            let (keep_alive, handle) = (keep_alive.clone(), make_handler());
            let _ = thread::Builder::new()
                .name(conn_name.clone())
                .spawn(move || keep_alive.serve(stream, handle));
        })
    }
}

/// One role's keep-alive policy; see [`Listener::keep_alive`].
#[derive(Clone)]
pub struct KeepAlive {
    role: &'static str,
    idle: Duration,
    shutdown: Shutdown,
}

impl KeepAlive {
    /// Answers requests on `stream` through `handle` until the peer
    /// closes, the connection idles past the idle timeout, or a response
    /// carries `connection: close` — because the client asked, the handler
    /// set it, or shutdown was triggered. A request that fails to parse is
    /// answered 400 (malformed) or 413 (over a limit) and the connection
    /// closed. Every request counts `{role}.requests`, every response
    /// `{role}.status.{code}`.
    pub fn serve(&self, stream: TcpStream, mut handle: impl FnMut(&Request) -> Response) {
        let _ = stream.set_read_timeout(Some(self.idle));
        let mut reader = BufReader::new(&stream);
        loop {
            let resp = match read_request(&mut reader) {
                Ok(Some(req)) => {
                    af_obs::counter(&format!("{}.requests", self.role), 1);
                    let resp = handle(&req);
                    if req.wants_close() || self.shutdown.is_triggered() {
                        resp.with_close()
                    } else {
                        resp
                    }
                }
                // Clean close, idle timeout or reset: nothing to answer.
                Ok(None) | Err(ParseError::Io(_)) => return,
                Err(ParseError::Bad(msg)) => Response::error(400, &msg).with_close(),
                Err(ParseError::TooLarge(msg)) => Response::error(413, &msg).with_close(),
            };
            af_obs::counter(&format!("{}.status.{}", self.role, resp.status), 1);
            if resp.write_to(&mut &stream).is_err() || resp.close {
                return;
            }
        }
    }
}

/// Whether `e` is a read or write timeout.
#[must_use]
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A keep-alive HTTP/1.1 client connection.
pub struct HttpConn {
    addr: String,
    reader: BufReader<TcpStream>,
}

impl HttpConn {
    /// Connects to `addr` (`host:port`) with [`IO_TIMEOUT`] on reads and
    /// writes and TCP_NODELAY on.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            addr: addr.to_string(),
            reader: BufReader::new(stream),
        })
    }

    /// The peer address this connection was opened to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Bounds how long the following calls wait for a response.
    ///
    /// # Errors
    ///
    /// A zero `timeout`.
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Sends one request and reads the response. `extra_headers` are
    /// appended verbatim; `content-length` and `host` are always set.
    ///
    /// # Errors
    ///
    /// Transport or framing failures — the connection should be dropped.
    /// The error is `NotConnected` when the connection was dead before the
    /// server could answer: the request could not be written, or the peer
    /// closed or reset the connection before the first response byte (a
    /// pooled connection the server had already dropped). Only then may a
    /// caller resend on a fresh connection; after any other error, a
    /// timeout above all, the server may have received the request.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(String, String)],
        body: &[u8],
    ) -> std::io::Result<RawResponse> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n",
            self.addr,
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        let stream = self.reader.get_mut();
        let sent = stream.write_all(&message).and_then(|()| stream.flush());
        let not_connected = std::io::ErrorKind::NotConnected;
        match sent.and_then(|()| self.reader.fill_buf().map(|b| !b.is_empty())) {
            Ok(true) => read_response(&mut self.reader),
            Ok(false) => Err(std::io::Error::new(
                not_connected,
                "closed before the status line",
            )),
            Err(e) if is_timeout(&e) => Err(e),
            Err(e) => Err(std::io::Error::new(not_connected, e)),
        }
    }
}

/// One exchange on a fresh connection, which closes after the response.
///
/// # Errors
///
/// As [`HttpConn::connect`] and [`HttpConn::call`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> std::io::Result<RawResponse> {
    let mut headers = headers.to_vec();
    headers.push(("connection".to_string(), "close".to_string()));
    HttpConn::connect(addr)?.call(method, path, &headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        read_request(&mut BufReader::new(raw))
    }

    fn parse_response(raw: &[u8]) -> std::io::Result<RawResponse> {
        read_response(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_simple_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_with_body_and_case_insensitive_headers() {
        let req = parse(
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\nConnection: Close\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"abcd");
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_inputs_as_bad() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nnocolon\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 5\r\n\r\nabcde",
            b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort",
        ] {
            match parse(raw) {
                Err(ParseError::Bad(_)) => {}
                other => panic!(
                    "expected Bad for {:?}, got {:?}",
                    String::from_utf8_lossy(raw),
                    other.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn rejects_oversized_inputs_as_too_large() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 1));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(ParseError::TooLarge(_))
        ));

        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many_headers.push_str(&format!("h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(
            parse(many_headers.as_bytes()),
            Err(ParseError::TooLarge(_))
        ));

        let huge_body = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(huge_body.as_bytes()),
            Err(ParseError::TooLarge(_))
        ));
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let raw: &[u8] = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let a = read_request(&mut reader).unwrap().unwrap();
        let b = read_request(&mut reader).unwrap().unwrap();
        let c = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (a.path.as_str(), b.path.as_str(), c.path.as_str()),
            ("/a", "/b", "/c")
        );
        assert_eq!(b.body, b"hi");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn responses_serialize_with_headers_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".to_string())
            .with_header("retry-after", "1".to_string())
            .with_close()
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        // The writer and the reader are the two halves of every hop.
        let resp = parse_response(&out).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, b"{\"ok\":true}");
        assert!(resp.close);
    }

    #[test]
    fn parses_response_with_headers_and_body() {
        let resp = parse_response(
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nx-cache: hit\r\ncontent-length: 11\r\n\r\n{\"ok\":true}",
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), Some("hit"));
        assert_eq!(resp.body, b"{\"ok\":true}");
        assert!(!resp.close);
        #[derive(serde::Deserialize)]
        struct Ok_ {
            ok: bool,
        }
        assert!(resp.json::<Ok_>().unwrap().ok);
    }

    #[test]
    fn detects_connection_close_and_empty_body() {
        let resp = parse_response(b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\n\r\n")
            .unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.close);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn rejects_malformed_responses() {
        for raw in [
            b"".as_slice(),
            b"NOTHTTP 200 OK\r\n\r\n",
            b"HTTP/1.1 notanumber OK\r\n\r\n",
            b"HTTP/1.1 999999 ???\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nnocolon\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: nan\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort",
            b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nab",
        ] {
            assert!(
                parse_response(raw).is_err(),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }
}
