//! A minimal blocking HTTP/1.1 implementation.
//!
//! idICN is an HTTP overlay, so this module provides exactly the subset the
//! design needs: request/response parsing and serialization with
//! `Content-Length` bodies, case-insensitive headers, `Range` /
//! `Content-Range` (for mobility resumption, §6.3), keep-alive connections,
//! and a small threaded server harness. No TLS, no chunked encoding —
//! content authenticity comes from the idICN signatures, not the channel,
//! which is precisely the paper's point about content-oriented security.
//!
//! Per the networking guides, these are few-connection loopback services:
//! blocking I/O plus a thread per connection is the simplest robust design
//! (async buys nothing here). Three rules keep that design bounded:
//!
//! * **One accept loop.** Every server — [`serve`], [`serve_on`] and the
//!   chaos forwarder — blocks in `accept` on one thread and runs each
//!   connection on a thread of its own, at most [`MAX_CONNECTIONS`] at a
//!   time. The accept thread itself answers the next one `503` with
//!   `Connection: close`.
//! * **Stopping releases everything.** [`HttpServer::shutdown`] and drop
//!   wake the accept loop with a self-connect, shut every live connection
//!   down and join the threads serving them. When they return, no
//!   connection of the server is open and its handler has been dropped.
//! * **Keep-alive between components, one connection per client fetch.**
//!   [`request_once`] and [`http_get`] open a connection per request and
//!   close it: that is a client's fetch. The overlay's own upstream hops
//!   (resolver calls, edge proxy → reverse proxy, reverse proxy → origin)
//!   use `request_pooled`, which reuses idle connections from one
//!   process-wide pool, bounded per address and in total. A request on a
//!   *reused* connection that fails before the first response byte was
//!   never answered, so it is re-sent once on a fresh connection. Every
//!   failure on a fresh connection is returned as is.

use crate::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Maximum accepted header section size (64 KiB of lines) — except that
/// idICN carries Merkle signatures (~25 KiB hex) in headers, so allow 1 MiB.
pub(crate) const MAX_HEADER_BYTES: usize = 1 << 20;
/// Maximum accepted body size (64 MiB).
const MAX_BODY_BYTES: usize = 64 << 20;
/// Body capacity reserved from `Content-Length` before any byte arrives.
const BODY_RESERVE: usize = 1 << 20;

/// Live connections one server serves at once, each on its own thread.
/// The accept thread answers the next one `503` with `Connection: close`,
/// so a flood of clients costs a bounded number of threads and sockets.
pub const MAX_CONNECTIONS: usize = 256;
/// Idle keep-alive connections the process keeps to one upstream address;
/// returning one more closes the oldest for that address.
const IDLE_PER_ADDR: usize = 8;
/// Idle keep-alive connections the process keeps in total; returning one
/// more closes the oldest, which also ages out connections to servers that
/// have since stopped.
const IDLE_TOTAL: usize = 64;

/// Deadline for establishing an outbound TCP connection. Loopback connects
/// either succeed or are refused immediately; the deadline guards against
/// black-holed addresses (a mobile server that moved away mid-transfer).
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Default read/write deadline applied to **every** TCP stream this crate
/// touches, outbound and accepted alike — no socket may hang a worker
/// forever. The live value is process-wide and adjustable with
/// [`set_io_timeout`] (chaos tests shrink it so injected stalls resolve in
/// milliseconds instead of seconds).
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

static IO_TIMEOUT_MS: AtomicU64 = AtomicU64::new(5_000);

/// The current process-wide I/O deadline (defaults to [`IO_TIMEOUT`]).
pub fn io_timeout() -> Duration {
    Duration::from_millis(IO_TIMEOUT_MS.load(Ordering::Relaxed))
}

/// Overrides the process-wide I/O deadline. Sub-millisecond values clamp
/// up to 1 ms (a zero socket timeout would mean "block forever", the exact
/// opposite of a deadline).
pub fn set_io_timeout(deadline: Duration) {
    IO_TIMEOUT_MS.store(deadline.as_millis().max(1) as u64, Ordering::Relaxed);
}

/// Reclassifies I/O errors whose kind is a deadline expiry into
/// [`Error::Timeout`] so callers can tell "slow peer" from "broken pipe".
fn flag_timeout(e: Error) -> Error {
    match e {
        Error::Io(io)
            if io.kind() == std::io::ErrorKind::WouldBlock
                || io.kind() == std::io::ErrorKind::TimedOut =>
        {
            Error::Timeout(io)
        }
        other => other,
    }
}

/// An ordered, case-insensitive header map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// First value of `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Replaces all values of `name` with one value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.0.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.0.push((name.to_string(), value.into()));
    }

    /// Appends a value without removing existing ones.
    pub fn add(&mut self, name: &str, value: impl Into<String>) {
        self.0.push((name.to_string(), value.into()));
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// True when `headers` carry `Connection: close`.
fn wants_close(headers: &Headers) -> bool {
    headers
        .get("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// An HTTP request message.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Method (GET, POST, ...).
    pub method: String,
    /// Request target (origin-form path or absolute URI in proxy requests).
    pub target: String,
    /// Header fields.
    pub headers: Headers,
    /// Message body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A GET request for `target`.
    pub fn get(target: impl Into<String>) -> Self {
        Self {
            method: "GET".into(),
            target: target.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(target: impl Into<String>, body: Vec<u8>) -> Self {
        Self {
            method: "POST".into(),
            target: target.into(),
            headers: Headers::new(),
            body,
        }
    }
}

/// An HTTP response message.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header fields.
    pub headers: Headers,
    /// Message body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A response with the given status and body.
    pub fn new(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            reason: reason_phrase(status).to_string(),
            headers: Headers::new(),
            body,
        }
    }

    /// 200 OK with a body.
    pub fn ok(body: Vec<u8>) -> Self {
        Self::new(200, body)
    }

    /// 404 with a text body.
    pub fn not_found(msg: &str) -> Self {
        Self::new(404, msg.as_bytes().to_vec())
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        206 => "Partial Content",
        301 => "Moved Permanently",
        302 => "Found",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        416 => "Range Not Satisfiable",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads one LF-terminated line (a trailing CR is dropped), charging its
/// bytes to `budget`. `Ok(None)` on EOF before the line's first byte.
fn read_line_limited<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Option<String>> {
    let mut line = Vec::new();
    *budget -= r
        .by_ref()
        .take(*budget as u64)
        .read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        return String::from_utf8(line)
            .map(Some)
            .map_err(|_| Error::Protocol("non-UTF8 header line".into()));
    }
    // No line end: the budget ran out, or the stream ended.
    if *budget == 0 && !r.fill_buf()?.is_empty() {
        return Err(Error::Protocol("header section too large".into()));
    }
    if line.is_empty() {
        Ok(None) // clean EOF
    } else {
        Err(Error::Protocol("unexpected EOF mid-line".into()))
    }
}

fn read_headers<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Headers> {
    let mut headers = Headers::new();
    loop {
        let line = read_line_limited(r, budget)?
            .ok_or_else(|| Error::Protocol("EOF in headers".into()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| Error::Protocol(format!("malformed header line {line:?}")))?;
        headers.add(name.trim(), value.trim().to_string());
    }
}

fn read_body<R: BufRead>(r: &mut R, headers: &Headers) -> Result<Vec<u8>> {
    let len: usize = match headers.get("content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .parse()
            .map_err(|_| Error::Protocol(format!("bad content-length {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(Error::Protocol(format!("body too large: {len}")));
    }
    // Reserve (never zero-fill) at most BODY_RESERVE up front and grow with
    // the bytes that arrive beyond it: a header may promise more than the
    // peer ever sends. A body within the reserve gets an exact-size buffer.
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
    r.by_ref()
        .take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| flag_timeout(Error::Io(e)))?;
    if body.len() < len {
        // A body shorter than its Content-Length means the transport died
        // mid-transfer (peer crash, connection cut) — a transient I/O
        // failure worth retrying, not a protocol violation by a healthy
        // peer.
        return Err(Error::Io(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "body shorter than its Content-Length",
        )));
    }
    Ok(body)
}

/// Reads one request; `Ok(None)` on clean EOF (closed keep-alive).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<HttpRequest>> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(Error::Protocol(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Error::Protocol(format!("unsupported version {version:?}")));
    }
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Some(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    }))
}

/// Appends `headers` (less any `Content-Length`), then the real
/// `Content-Length` and the blank line that ends the head.
fn push_fields(head: &mut String, headers: &Headers, body_len: usize) {
    for (n, v) in headers.iter() {
        if !n.eq_ignore_ascii_case("content-length") {
            head.push_str(n);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
    }
    head.push_str(&format!("Content-Length: {body_len}\r\n\r\n"));
}

/// Writes a head and a body: two writes, so two segments on a no-delay
/// socket whatever the number of header lines.
fn write_message<W: Write>(w: &mut W, head: &str, body: &[u8]) -> Result<()> {
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Writes a request, setting `Content-Length`.
pub fn write_request<W: Write>(w: &mut W, req: &HttpRequest) -> Result<()> {
    let mut head = format!("{} {} HTTP/1.1\r\n", req.method, req.target);
    push_fields(&mut head, &req.headers, req.body.len());
    write_message(w, &head, &req.body)
}

/// Reads one response; `Ok(None)` on clean EOF.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Option<HttpResponse>> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(Error::Protocol(format!("malformed status line {line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::Protocol(format!("bad status in {line:?}")))?;
    let reason = parts.next().unwrap_or("").to_string();
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Some(HttpResponse {
        status,
        reason,
        headers,
        body,
    }))
}

/// The status line and header section of `resp`, with its
/// `Content-Length` (the chaos layer sends a head with a short body).
pub(crate) fn response_head(resp: &HttpResponse) -> String {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
    push_fields(&mut head, &resp.headers, resp.body.len());
    head
}

/// Writes a response, setting `Content-Length`.
pub fn write_response<W: Write>(w: &mut W, resp: &HttpResponse) -> Result<()> {
    write_message(w, &response_head(resp), &resp.body)
}

/// Parses a `Range: bytes=...` header against a body of `total` bytes.
/// Returns the half-open satisfiable range, or `None` when absent/invalid.
/// Only single ranges are supported (all the mobility design needs).
pub fn parse_range(value: &str, total: usize) -> Option<(usize, usize)> {
    let spec = value.trim().strip_prefix("bytes=")?;
    let (lo, hi) = spec.split_once('-')?;
    if lo.is_empty() {
        // suffix form: last N bytes
        let n: usize = hi.parse().ok()?;
        if n == 0 {
            return None;
        }
        return Some((total.saturating_sub(n), total));
    }
    let start: usize = lo.parse().ok()?;
    if start >= total {
        return None;
    }
    let end = if hi.is_empty() {
        total
    } else {
        let e: usize = hi.parse().ok()?;
        (e + 1).min(total)
    };
    if end <= start {
        return None;
    }
    Some((start, end))
}

/// Formats a `Content-Range` header value for a half-open range.
pub fn content_range(start: usize, end: usize, total: usize) -> String {
    format!("bytes {}-{}/{}", start, end - 1, total)
}

/// Handler signature for [`serve`].
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// What the accept loop runs on each admitted connection's thread.
pub(crate) type StreamBody = Arc<dyn Fn(TcpStream) + Send + Sync>;

/// The connections a server is serving, by admission number: a handle to
/// each socket (to shut it down on stop) and the thread serving it.
#[derive(Default)]
struct Live {
    next: u64,
    conns: HashMap<u64, (TcpStream, JoinHandle<()>)>,
}

/// A running HTTP server. [`HttpServer::shutdown`] and drop stop it the
/// same way, and return once no connection of the server is open and no
/// thread of it holds the handler.
pub struct HttpServer {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    live: Arc<Mutex<Live>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts every live connection down (an idle
    /// keep-alive client reads EOF) and joins the threads serving them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        self.stopping.store(true, Ordering::SeqCst);
        // `accept` blocks until a connection arrives: be that connection.
        let _ = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT);
        let _ = accept_thread.join();
        // No connection is admitted from here on.
        let conns = std::mem::take(&mut self.live.lock().conns);
        for (stream, _) in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, thread) in conns.into_values() {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `127.0.0.1:0` and serves `handler` on a background thread, with
/// keep-alive support. Connections are handled one thread each — these are
/// loopback demo services, not internet-facing servers.
pub fn serve(handler: Handler) -> Result<HttpServer> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    serve_on(listener, handler)
}

/// Like [`serve`] but on a caller-provided listener.
pub fn serve_on(listener: TcpListener, handler: Handler) -> Result<HttpServer> {
    serve_streams(
        listener,
        Arc::new(move |stream| handle_connection(stream, &handler)),
    )
}

/// The accept loop: blocks in `accept` on its own thread and runs `body`
/// on a new thread per admitted connection, up to [`MAX_CONNECTIONS`] at
/// a time.
pub(crate) fn serve_streams(listener: TcpListener, body: StreamBody) -> Result<HttpServer> {
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
    let live = Arc::new(Mutex::new(Live::default()));
    let (flag, registry) = (stopping.clone(), live.clone());
    let accept_thread = thread::Builder::new().spawn(move || {
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                break;
            };
            admit(stream, &registry, &body);
        }
    })?;
    Ok(HttpServer {
        addr,
        stopping,
        live,
        accept_thread: Some(accept_thread),
    })
}

/// Starts a thread running `body` on `stream` and registers both, or
/// refuses the connection when the server is at its cap.
fn admit(stream: TcpStream, live: &Arc<Mutex<Live>>, body: &StreamBody) {
    let mut guard = live.lock();
    if guard.conns.len() >= MAX_CONNECTIONS {
        drop(guard);
        refuse(&stream);
        return;
    }
    let Ok(handle) = stream.try_clone() else {
        return;
    };
    let id = guard.next;
    guard.next += 1;
    let (body, registry) = (body.clone(), live.clone());
    // Spawned under the lock, so the thread cannot deregister before it
    // is registered.
    let spawned = thread::Builder::new().spawn(move || {
        body(stream);
        // Release the handler before the server can see this connection
        // gone; dropping the registry's handle closes the socket.
        drop(body);
        registry.lock().conns.remove(&id);
    });
    if let Ok(thread) = spawned {
        guard.conns.insert(id, (handle, thread));
    }
}

/// Answers a connection over the cap from the accept thread: a `503`
/// that tells the client not to reuse the connection, then close.
fn refuse(stream: &TcpStream) {
    let mut resp = HttpResponse::new(503, b"connection limit reached".to_vec());
    resp.headers.set("Connection", "close");
    let _ = stream.set_write_timeout(Some(io_timeout()));
    let _ = write_response(&mut &*stream, &resp);
}

fn handle_connection(stream: TcpStream, handler: &Handler) {
    let _ = stream.set_nodelay(true);
    // The read deadline also ends an idle keep-alive connection; stopping
    // the server ends it sooner by shutting the socket down.
    let _ = stream.set_read_timeout(Some(io_timeout()));
    // A stalled reader must not pin this worker thread forever either.
    let _ = stream.set_write_timeout(Some(io_timeout()));
    let mut conn = BufReader::new(stream);
    loop {
        let req = match read_request(&mut conn) {
            Ok(Some(req)) => req,
            // Closed, reset, shut down, or silent past the deadline.
            Ok(None) | Err(Error::Io(_) | Error::Timeout(_)) => return,
            Err(_) => {
                let _ = write_response(&mut conn.get_ref(), &HttpResponse::new(400, Vec::new()));
                return;
            }
        };
        let resp = handler(&req);
        if write_response(&mut conn.get_ref(), &resp).is_err() || wants_close(&req.headers) {
            return;
        }
    }
}

/// One-shot GET helper: connects, sends, reads, closes.
pub fn http_get(addr: SocketAddr, target: &str, headers: &[(&str, &str)]) -> Result<HttpResponse> {
    let mut req = HttpRequest::get(target);
    for (n, v) in headers {
        req.headers.set(n, *v);
    }
    request_once(addr, &req)
}

/// One-shot request helper. Every outbound stream carries connect, read,
/// and write deadlines; a connection that cannot be established surfaces
/// as [`Error::Unreachable`], an expired deadline as [`Error::Timeout`].
pub fn request_once(addr: SocketAddr, req: &HttpRequest) -> Result<HttpResponse> {
    let mut req = req.clone();
    req.headers.set("Connection", "close");
    match exchange(connect(addr)?, &req) {
        Exchange::Done(resp, _) => Ok(resp),
        Exchange::Unanswered(e) | Exchange::Failed(e) => Err(e),
    }
}

/// Sends `req` to `addr` over a keep-alive connection: an idle one from
/// the process-wide pool if there is one, else a fresh one. After a whole
/// response the connection goes back to the pool, unless the response
/// says `Connection: close`.
///
/// A pooled connection may have been closed by its server while it sat
/// idle. If the request on it goes unanswered — the write fails, or EOF
/// or a reset arrives before the first response byte — the server never
/// handled it, so it is re-sent once on a fresh connection. Failures on a
/// fresh connection are returned exactly as [`request_once`] returns them,
/// so retry policies and circuit breakers see the same errors either way.
pub(crate) fn request_pooled(addr: SocketAddr, req: &HttpRequest) -> Result<HttpResponse> {
    if let Some(conn) = take_idle(addr) {
        match exchange(conn, req) {
            Exchange::Unanswered(_) => {} // stale: re-send once, below
            outcome => return keep_alive(addr, outcome),
        }
    }
    keep_alive(addr, exchange(connect(addr)?, req))
}

/// Returns the response of a pooled exchange, pooling its connection.
fn keep_alive(addr: SocketAddr, outcome: Exchange) -> Result<HttpResponse> {
    match outcome {
        Exchange::Done(resp, conn) => {
            if !wants_close(&resp.headers) && conn.buffer().is_empty() {
                put_idle(addr, conn);
            }
            Ok(resp)
        }
        Exchange::Unanswered(e) | Exchange::Failed(e) => Err(e),
    }
}

/// An outbound connection: read through a buffer, written directly.
type Conn = BufReader<TcpStream>;

/// Opens a fresh outbound connection carrying connect, read and write
/// deadlines.
fn connect(addr: SocketAddr) -> Result<Conn> {
    #[cfg(test)]
    tests::CONNECTS.with(|c| c.set(c.get() + 1));
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|e| {
        if e.kind() == std::io::ErrorKind::TimedOut || e.kind() == std::io::ErrorKind::WouldBlock {
            Error::Timeout(e)
        } else {
            Error::Unreachable(e)
        }
    })?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout()))?;
    stream.set_write_timeout(Some(io_timeout()))?;
    Ok(BufReader::new(stream))
}

/// How one request/response exchange on a connection ended.
enum Exchange {
    /// A whole response arrived; the connection is at a message boundary.
    Done(HttpResponse, Conn),
    /// Nothing came back: the write failed, or the peer closed or reset
    /// the connection before the first byte of the status line.
    Unanswered(Error),
    /// The response began and then failed: a deadline, a truncated body,
    /// malformed bytes.
    Failed(Error),
}

fn exchange(mut conn: Conn, req: &HttpRequest) -> Exchange {
    if let Err(e) = write_request(&mut conn.get_ref(), req) {
        return Exchange::Unanswered(flag_timeout(e));
    }
    let silent = conn.fill_buf().map(|first| first.is_empty());
    match silent {
        Ok(true) => Exchange::Unanswered(Error::Protocol("server closed without response".into())),
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ) =>
        {
            Exchange::Unanswered(Error::Io(e))
        }
        Err(e) => Exchange::Failed(flag_timeout(Error::Io(e))),
        Ok(false) => match read_response(&mut conn) {
            Ok(Some(resp)) => Exchange::Done(resp, conn),
            Ok(None) => {
                Exchange::Unanswered(Error::Protocol("server closed without response".into()))
            }
            Err(e) => Exchange::Failed(flag_timeout(e)),
        },
    }
}

/// Idle keep-alive connections, oldest first, shared by every upstream
/// hop in the process. One pool rather than one per client value:
/// `ResolverClient` is `Copy`, and copies of one client must share
/// connections.
static IDLE: LazyLock<Mutex<Vec<(SocketAddr, Conn)>>> = LazyLock::new(Mutex::default);

/// The most recently pooled idle connection to `addr`, if any.
fn take_idle(addr: SocketAddr) -> Option<Conn> {
    let mut idle = IDLE.lock();
    let i = idle.iter().rposition(|(a, _)| *a == addr)?;
    Some(idle.remove(i).1)
}

/// Pools `conn`, closing the oldest idle connection when a bound is hit.
fn put_idle(addr: SocketAddr, conn: Conn) {
    let mut idle = IDLE.lock();
    let same = idle.iter().filter(|(a, _)| *a == addr).count();
    let oldest = if same >= IDLE_PER_ADDR {
        idle.iter().position(|(a, _)| *a == addr)
    } else if idle.len() >= IDLE_TOTAL {
        Some(0)
    } else {
        None
    };
    if let Some(i) = oldest {
        idle.remove(i);
    }
    idle.push((addr, conn));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::io::Cursor;
    use std::time::Instant;

    thread_local! {
        /// Fresh outbound connections opened on this test's thread.
        pub(super) static CONNECTS: Cell<u64> = const { Cell::new(0) };
    }

    fn connects() -> u64 {
        CONNECTS.with(Cell::get)
    }

    #[test]
    fn request_roundtrip() {
        let mut req = HttpRequest::post("/publish", b"hello".to_vec());
        req.headers.set("X-Test", "1");
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let parsed = read_request(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.target, "/publish");
        assert_eq!(parsed.headers.get("x-test"), Some("1"));
        assert_eq!(parsed.body, b"hello");
    }

    #[test]
    fn response_roundtrip() {
        let mut resp = HttpResponse::ok(b"body".to_vec());
        resp.headers.set("X-Cache", "HIT");
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.headers.get("X-CACHE"), Some("HIT"));
        assert_eq!(parsed.body, b"body");
    }

    #[test]
    fn eof_yields_none() {
        assert!(read_request(&mut Cursor::new(Vec::<u8>::new()))
            .unwrap()
            .is_none());
        assert!(read_response(&mut Cursor::new(Vec::<u8>::new()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",                         // missing version
            "GET / SPDY/3\r\n\r\n",                  // wrong protocol
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", // bad header
        ] {
            assert!(
                read_request(&mut Cursor::new(bad.as_bytes().to_vec())).is_err(),
                "{bad:?}"
            );
        }
        // Bad content-length.
        let bad = "GET / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n";
        assert!(read_request(&mut Cursor::new(bad.as_bytes().to_vec())).is_err());
    }

    #[test]
    fn header_lines_fail_with_typed_errors() {
        let protocol_error = |wire: Vec<u8>| match read_request(&mut Cursor::new(wire)) {
            Err(Error::Protocol(m)) => m,
            other => panic!("expected a protocol error, got {other:?}"),
        };
        // The whole header section, line ends included, shares one budget.
        let mut big = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        big.resize(MAX_HEADER_BYTES - 1, b'a');
        big.extend_from_slice(b"\r\n\r\n");
        assert!(protocol_error(big.clone()).contains("too large"));
        // A head of exactly the budget fits: its blank line ends on it.
        big.truncate(MAX_HEADER_BYTES - 4);
        big.extend_from_slice(b"\r\n\r\n");
        assert!(read_request(&mut Cursor::new(big)).unwrap().is_some());
        assert!(protocol_error(b"GET / HTTP/1.1\r\nX-Cut: abc".to_vec()).contains("mid-line"));
        assert!(protocol_error(b"GET / HTTP/1.1\r\nX-Bin: \xff\r\n\r\n".to_vec()).contains("UTF8"));
    }

    #[test]
    fn truncated_body_is_a_transient_io_error() {
        // A connection cut mid-body must classify as retryable transport
        // failure, not as a protocol violation — also when the header
        // promises far more than arrives.
        for wire in [
            "GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
            "HTTP/1.1 200 OK\r\nContent-Length: 60000000\r\n\r\n0123456789",
        ] {
            let mut r = Cursor::new(wire.as_bytes().to_vec());
            let err = if wire.starts_with("GET") {
                read_request(&mut r).unwrap_err()
            } else {
                read_response(&mut r).unwrap_err()
            };
            assert!(matches!(err, Error::Io(_)), "{wire:?}: {err:?}");
        }
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range("bytes=0-99", 1000), Some((0, 100)));
        assert_eq!(parse_range("bytes=500-", 1000), Some((500, 1000)));
        assert_eq!(parse_range("bytes=-200", 1000), Some((800, 1000)));
        assert_eq!(parse_range("bytes=0-4", 3), Some((0, 3)), "clamped end");
        assert_eq!(parse_range("bytes=1000-", 1000), None, "start past end");
        assert_eq!(parse_range("bytes=5-2", 1000), None);
        assert_eq!(parse_range("items=0-1", 1000), None);
        assert_eq!(parse_range("bytes=-0", 1000), None);
        assert_eq!(content_range(0, 100, 1000), "bytes 0-99/1000");
    }

    #[test]
    fn header_case_insensitivity_and_set() {
        let mut h = Headers::new();
        h.add("Content-Type", "text/plain");
        h.add("content-type", "application/json");
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        h.set("Content-Type", "final");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("content-type"), Some("final"));
    }

    #[test]
    fn refused_connection_is_unreachable() {
        // Nothing listens on port 1; loopback refuses instantly. The error
        // class must say "service down", not a bare Io or NotFound.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = http_get(addr, "/", &[]).unwrap_err();
        assert!(matches!(err, Error::Unreachable(_)), "{err:?}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "transport cause must chain through source()"
        );
    }

    #[test]
    fn deadline_expiries_are_reclassified() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let e = flag_timeout(Error::Io(std::io::Error::from(kind)));
            assert!(matches!(e, Error::Timeout(_)), "{kind:?}");
        }
        // Everything else passes through untouched.
        let e = flag_timeout(Error::Io(std::io::Error::from(
            std::io::ErrorKind::BrokenPipe,
        )));
        assert!(matches!(e, Error::Io(_)));
        let e = flag_timeout(Error::Protocol("x".into()));
        assert!(matches!(e, Error::Protocol(_)));
    }

    #[test]
    fn live_server_roundtrip_and_keepalive() {
        let server = serve(Arc::new(|req: &HttpRequest| {
            HttpResponse::ok(format!("you asked for {}", req.target).into_bytes())
        }))
        .unwrap();
        let addr = server.addr();
        // Two requests over one connection (keep-alive).
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for path in ["/a", "/b"] {
            write_request(&mut writer, &HttpRequest::get(path)).unwrap();
            let resp = read_response(&mut reader).unwrap().unwrap();
            assert_eq!(resp.body, format!("you asked for {path}").into_bytes());
        }
        drop(writer);
        drop(reader);
        // One-shot helper.
        let resp = http_get(addr, "/c", &[]).unwrap();
        assert_eq!(resp.body, b"you asked for /c");
        server.shutdown();
    }

    #[test]
    fn shutdown_releases_the_handler() {
        let handler: Handler = Arc::new(|_req: &HttpRequest| HttpResponse::ok(b"hi".to_vec()));
        let server = serve(handler.clone()).unwrap();
        // One exchange, then the connection sits idle, kept alive.
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let mut conn = BufReader::new(stream);
        write_request(&mut conn.get_ref(), &HttpRequest::get("/")).unwrap();
        assert!(read_response(&mut conn).unwrap().unwrap().is_success());
        assert!(
            Arc::strong_count(&handler) > 1,
            "the server holds the handler"
        );
        server.shutdown();
        assert_eq!(
            Arc::strong_count(&handler),
            1,
            "no thread of the stopped server still holds the handler"
        );
        assert!(
            read_response(&mut conn).unwrap().is_none(),
            "the idle connection was closed"
        );
    }

    #[test]
    fn stale_pooled_connection_is_resent_once() {
        let server = serve(Arc::new(|req: &HttpRequest| {
            HttpResponse::ok(req.target.clone().into_bytes())
        }))
        .unwrap();
        let addr = server.addr();
        assert_eq!(
            request_pooled(addr, &HttpRequest::get("/a")).unwrap().body,
            b"/a"
        );
        // Have the server close the pooled connection, then put it back:
        // the pool now holds a connection its server has closed.
        let conn = take_idle(addr).expect("the exchange pooled its connection");
        let mut last = HttpRequest::get("/last");
        last.headers.set("Connection", "close");
        let Exchange::Done(_, conn) = exchange(conn, &last) else {
            panic!("the server answers before closing");
        };
        put_idle(addr, conn);

        let before = connects();
        let resp = request_pooled(addr, &HttpRequest::get("/b")).unwrap();
        assert_eq!(resp.body, b"/b", "re-sent on a fresh connection");
        assert_eq!(connects() - before, 1, "re-sent once");

        // The server stops: its pooled connection is stale, and the fresh
        // one is refused. That surfaces as Unreachable, after one connect.
        server.shutdown();
        let before = connects();
        let err = request_pooled(addr, &HttpRequest::get("/c")).unwrap_err();
        assert!(matches!(err, Error::Unreachable(_)), "{err:?}");
        assert_eq!(connects() - before, 1, "one fresh connect, no more");
    }

    #[test]
    fn connection_over_the_cap_gets_503_promptly() {
        let server = serve(Arc::new(|_req: &HttpRequest| HttpResponse::ok(Vec::new()))).unwrap();
        // Connections are admitted in order, so these fill the cap before
        // the next one is accepted.
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let started = Instant::now();
        let extra = TcpStream::connect(server.addr()).unwrap();
        extra.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let resp = read_response(&mut BufReader::new(extra)).unwrap().unwrap();
        assert_eq!(resp.status, 503);
        assert!(wants_close(&resp.headers));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "refused promptly, took {:?}",
            started.elapsed()
        );
        drop(held);
        server.shutdown();
    }
}
