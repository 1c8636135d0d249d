//! The TCP transport: length-prefixed SOAP frames over `std::net`.
//!
//! # Framing
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 BE body length][u64 BE correlation id][u8 kind][payload]
//! ```
//!
//! where the body length covers the id, kind, and payload, and is capped
//! at [`MAX_FRAME_LEN`] (a peer announcing more is a protocol error, not
//! an allocation request). Three kinds exist:
//!
//! * `1` **Request** — `u16 BE` address length + address bytes, `u16 BE`
//!   action length + action bytes, then the serialised envelope.
//! * `2` **Response** — the serialised response envelope (fault
//!   envelopes included: SOAP faults are payload, never error frames).
//! * `3` **Error** — a one-byte [`BusError`] tag plus its detail, so a
//!   routing failure on the server crosses back as the same error the
//!   in-process bus would have returned.
//!
//! # Where this sits
//!
//! Everything observable — interceptors, fault injection, spans, stats
//! billing — lives *above* the [`Transport`] seam in `Bus::dispatch`.
//! [`TcpTransport`] only moves bytes: it keeps a small connection pool
//! per server address (lazily connected, pruned on death) and pipelines
//! concurrent requests over each connection, demultiplexing replies by
//! correlation id on a per-connection reader thread. [`TcpServer`]
//! accepts connections and feeds each frame to `Bus::serve_wire` on the
//! connection's thread, which is marked as a worker so nested service
//! calls run inline rather than deadlocking a finite executor pool.
//!
//! Timeout mapping: a write that cannot complete or a reply that never
//! arrives within the configured window is [`BusError::Timeout`]; a
//! closed or refused connection is [`BusError::ConnectionLost`]
//! (retryable — the pool reconnects lazily on the next send); a server
//! past its in-flight cap answers with an error frame carrying
//! [`BusError::Overloaded`] and its retry-after hint.

#![expect(clippy::disallowed_types, reason = "the `Transport` seam owns raw sockets")]

use crate::bus::{Bus, BusError, BusInner};
use crate::executor;
use crate::transport::Transport;
use dais_obs::names::event_names;
use dais_obs::{Journal, Metrics};
use dais_util::sync::{pause, Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Largest frame body a peer may announce (16 MiB). A length prefix
/// beyond this is rejected before any buffer grows to meet it.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;

const ERR_NO_SUCH_ENDPOINT: u8 = 0;
const ERR_MALFORMED: u8 = 1;
const ERR_TIMEOUT: u8 = 2;
const ERR_OVERLOADED: u8 = 3;
const ERR_CONNECTION_LOST: u8 = 4;

/// One frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation id: echoed by the response/error frame answering a
    /// request, so replies demultiplex over a pipelined connection.
    pub id: u64,
    pub body: FrameBody,
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// A request addressed to an endpoint, naming its SOAP action.
    Request { to: String, action: String, envelope: Vec<u8> },
    /// A serialised response envelope (SOAP faults included).
    Response(Vec<u8>),
    /// A transport-level error produced on the serving side.
    Error(BusError),
}

/// Why bytes did not decode into a [`Frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet: a complete frame needs `needed` bytes in
    /// total. Keep reading — this is the normal torn-read case.
    Incomplete { needed: usize },
    /// The length prefix announced a body beyond [`MAX_FRAME_LEN`].
    TooLarge { len: usize },
    /// The length prefix was satisfied but the body does not follow the
    /// frame grammar. The connection is unrecoverable (framing is lost).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete { needed } => {
                write!(f, "incomplete frame: {needed} bytes needed")
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Serialise `frame` onto the end of `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let body_start = out.len() + 4;
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&frame.id.to_be_bytes());
    match &frame.body {
        FrameBody::Request { to, action, envelope } => {
            out.push(KIND_REQUEST);
            out.extend_from_slice(&(to.len() as u16).to_be_bytes());
            out.extend_from_slice(to.as_bytes());
            out.extend_from_slice(&(action.len() as u16).to_be_bytes());
            out.extend_from_slice(action.as_bytes());
            out.extend_from_slice(envelope);
        }
        FrameBody::Response(envelope) => {
            out.push(KIND_RESPONSE);
            out.extend_from_slice(envelope);
        }
        FrameBody::Error(err) => {
            out.push(KIND_ERROR);
            match err {
                BusError::NoSuchEndpoint(m) => {
                    out.push(ERR_NO_SUCH_ENDPOINT);
                    out.extend_from_slice(m.as_bytes());
                }
                BusError::MalformedEnvelope(m) => {
                    out.push(ERR_MALFORMED);
                    out.extend_from_slice(m.as_bytes());
                }
                BusError::Timeout(m) => {
                    out.push(ERR_TIMEOUT);
                    out.extend_from_slice(m.as_bytes());
                }
                BusError::Overloaded { endpoint, retry_after } => {
                    out.push(ERR_OVERLOADED);
                    out.extend_from_slice(&(retry_after.as_nanos() as u64).to_be_bytes());
                    out.extend_from_slice(endpoint.as_bytes());
                }
                BusError::ConnectionLost(m) => {
                    out.push(ERR_CONNECTION_LOST);
                    out.extend_from_slice(m.as_bytes());
                }
            }
        }
    }
    let body_len = (out.len() - body_start) as u32;
    out[body_start - 4..body_start].copy_from_slice(&body_len.to_be_bytes());
}

fn utf8(bytes: &[u8], what: &str) -> Result<String, FrameError> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| FrameError::Malformed(format!("{what} is not UTF-8")))
}

/// Decode one frame from the front of `buf`. Returns the frame and the
/// number of bytes it occupied; [`FrameError::Incomplete`] asks for more
/// input and consumes nothing.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Incomplete { needed: 4 });
    }
    let body_len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if body_len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len: body_len });
    }
    if body_len < 9 {
        return Err(FrameError::Malformed(format!(
            "frame body of {body_len} bytes cannot hold an id and kind"
        )));
    }
    let total = 4 + body_len;
    if buf.len() < total {
        return Err(FrameError::Incomplete { needed: total });
    }
    let body = &buf[4..total];
    let id = u64::from_be_bytes([
        body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
    ]);
    let payload = &body[9..];
    let frame_body = match body[8] {
        KIND_REQUEST => {
            if payload.len() < 2 {
                return Err(FrameError::Malformed("request truncated before address".into()));
            }
            let to_len = u16::from_be_bytes([payload[0], payload[1]]) as usize;
            let rest = &payload[2..];
            if rest.len() < to_len + 2 {
                return Err(FrameError::Malformed("request truncated inside address".into()));
            }
            let to = utf8(&rest[..to_len], "request address")?;
            let rest = &rest[to_len..];
            let action_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
            let rest = &rest[2..];
            if rest.len() < action_len {
                return Err(FrameError::Malformed("request truncated inside action".into()));
            }
            let action = utf8(&rest[..action_len], "request action")?;
            FrameBody::Request { to, action, envelope: rest[action_len..].to_vec() }
        }
        KIND_RESPONSE => FrameBody::Response(payload.to_vec()),
        KIND_ERROR => {
            if payload.is_empty() {
                return Err(FrameError::Malformed("error frame missing its tag".into()));
            }
            let detail = &payload[1..];
            let err = match payload[0] {
                ERR_NO_SUCH_ENDPOINT => BusError::NoSuchEndpoint(utf8(detail, "error detail")?),
                ERR_MALFORMED => BusError::MalformedEnvelope(utf8(detail, "error detail")?),
                ERR_TIMEOUT => BusError::Timeout(utf8(detail, "error detail")?),
                ERR_OVERLOADED => {
                    if detail.len() < 8 {
                        return Err(FrameError::Malformed(
                            "overloaded frame truncated before its hint".into(),
                        ));
                    }
                    let nanos = u64::from_be_bytes([
                        detail[0], detail[1], detail[2], detail[3], detail[4], detail[5],
                        detail[6], detail[7],
                    ]);
                    BusError::Overloaded {
                        endpoint: utf8(&detail[8..], "error detail")?,
                        retry_after: Duration::from_nanos(nanos),
                    }
                }
                ERR_CONNECTION_LOST => BusError::ConnectionLost(utf8(detail, "error detail")?),
                tag => return Err(FrameError::Malformed(format!("unknown error tag {tag}"))),
            };
            FrameBody::Error(err)
        }
        kind => return Err(FrameError::Malformed(format!("unknown frame kind {kind}"))),
    };
    Ok((Frame { id, body: frame_body }, total))
}

/// Incremental frame decoder over a byte stream. Feed it whatever the
/// socket produced — single bytes, torn frames, several frames at once —
/// and take complete frames off the front as they become available.
/// Partial input stays buffered; a decode error is terminal for the
/// stream (framing is lost once bytes stop lining up).
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append newly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.consumed > 0 && self.consumed * 2 > self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, `Ok(None)` if more input is needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match decode_frame(&self.buf[self.consumed..]) {
            Ok((frame, used)) => {
                self.consumed += used;
                Ok(Some(frame))
            }
            Err(FrameError::Incomplete { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

// ---------------------------------------------------------------------------
// Client side: connection pool with per-connection pipelining
// ---------------------------------------------------------------------------

/// Client-side knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Connections kept per server address; concurrent requests
    /// round-robin across them and pipeline within each.
    pub pool_size: usize,
    /// How long to wait for a reply frame before the call fails with
    /// [`BusError::Timeout`].
    pub reply_timeout: Duration,
    /// Socket write timeout; an expired write fails the call with
    /// [`BusError::Timeout`].
    pub write_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            pool_size: 2,
            reply_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(1),
        }
    }
}

/// One in-flight request's rendezvous: the reader thread fulfils it with
/// the reply frame's payload (or the error that killed the connection)
/// and the calling thread waits on it with a deadline.
struct ReplySlot {
    state: Mutex<Option<Result<Vec<u8>, BusError>>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot { state: Mutex::new(None), cv: Condvar::new() })
    }

    fn fulfil(&self, outcome: Result<Vec<u8>, BusError>) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(outcome);
            self.cv.notify_all();
        }
    }

    fn wait(&self, deadline: Instant) -> Result<Vec<u8>, BusError> {
        let mut state = self.state.lock();
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(BusError::Timeout("no reply frame within the reply window".into()));
            }
            state = self.cv.wait_timeout(state, deadline - now).0;
        }
    }
}

/// One pooled connection: a shared write half, the pending-reply map the
/// reader thread demultiplexes into, and a liveness flag.
struct Conn {
    writer: Mutex<TcpStream>,
    pending: Arc<Mutex<HashMap<u64, Arc<ReplySlot>>>>,
    dead: Arc<AtomicBool>,
    closed: Arc<AtomicBool>,
}

impl Conn {
    fn open(addr: SocketAddr, config: &TcpConfig) -> Result<Arc<Conn>, BusError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| BusError::ConnectionLost(format!("connect to {addr} failed: {e}")))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_write_timeout(Some(config.write_timeout)))
            .map_err(|e| {
                BusError::ConnectionLost(format!("socket setup for {addr} failed: {e}"))
            })?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| BusError::ConnectionLost(format!("clone of {addr} stream failed: {e}")))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
            pending: Arc::new(Mutex::new(HashMap::new())),
            dead: Arc::new(AtomicBool::new(false)),
            closed: Arc::new(AtomicBool::new(false)),
        });
        let pending = Arc::clone(&conn.pending);
        let dead = Arc::clone(&conn.dead);
        let closed = Arc::clone(&conn.closed);
        thread::Builder::new()
            .name(format!("dais-tcp-reader-{addr}"))
            .spawn(move || reader_loop(reader_stream, pending, dead, closed))
            .map_err(|e| BusError::ConnectionLost(format!("reader thread spawn failed: {e}")))?;
        Ok(conn)
    }

    fn alive(&self) -> bool {
        !self.dead.load(Ordering::Acquire)
    }

    /// Kill the connection and fail everything still waiting on it.
    fn fail_all(&self, error: &BusError) {
        self.dead.store(true, Ordering::Release);
        let slots: Vec<Arc<ReplySlot>> = self.pending.lock().drain().map(|(_, s)| s).collect();
        for slot in slots {
            slot.fulfil(Err(error.clone()));
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
        self.dead.store(true, Ordering::Release);
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

/// The connection's read half: demultiplex reply frames into the pending
/// map by correlation id. Read timeouts only exist to poll the closed
/// flag; partial frames stay buffered in the [`FrameReader`] across
/// them, so a torn read never corrupts framing.
fn reader_loop(
    mut stream: TcpStream,
    pending: Arc<Mutex<HashMap<u64, Arc<ReplySlot>>>>,
    dead: Arc<AtomicBool>,
    closed: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut reader = FrameReader::new();
    let mut scratch = [0u8; 64 * 1024];
    let fail_all = |error: BusError| {
        dead.store(true, Ordering::Release);
        let slots: Vec<Arc<ReplySlot>> = pending.lock().drain().map(|(_, s)| s).collect();
        for slot in slots {
            slot.fulfil(Err(error.clone()));
        }
    };
    loop {
        if closed.load(Ordering::Acquire) {
            fail_all(BusError::ConnectionLost("connection closed by the client pool".into()));
            return;
        }
        let n = match stream.read(&mut scratch) {
            Ok(0) => {
                fail_all(BusError::ConnectionLost("server closed the connection".into()));
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) => {
                fail_all(BusError::ConnectionLost(format!("read failed: {e}")));
                return;
            }
        };
        reader.feed(&scratch[..n]);
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    let slot = pending.lock().remove(&frame.id);
                    if let Some(slot) = slot {
                        match frame.body {
                            FrameBody::Response(bytes) => slot.fulfil(Ok(bytes)),
                            FrameBody::Error(err) => slot.fulfil(Err(err)),
                            FrameBody::Request { .. } => {
                                slot.fulfil(Err(BusError::MalformedEnvelope(
                                    "server answered with a request frame".into(),
                                )))
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    fail_all(BusError::ConnectionLost(format!("reply framing lost: {e}")));
                    return;
                }
            }
        }
    }
}

/// The socket transport below the serialise→route→parse boundary.
///
/// Routing: explicit per-address routes ([`add_route`](TcpTransport::add_route))
/// plus an optional default route carrying every other address — a
/// split deployment typically points the default at one server. A bus
/// with this transport installed serves unrouted addresses from its own
/// registry, so local and remote endpoints coexist.
pub struct TcpTransport {
    config: TcpConfig,
    routes: RwLock<HashMap<String, SocketAddr>>,
    default_route: RwLock<Option<SocketAddr>>,
    pools: Mutex<HashMap<SocketAddr, Vec<Option<Arc<Conn>>>>>,
    rr: AtomicU64,
    next_id: AtomicU64,
}

impl TcpTransport {
    pub fn new(config: TcpConfig) -> TcpTransport {
        TcpTransport {
            config,
            routes: RwLock::default(),
            default_route: RwLock::default(),
            pools: Mutex::new(HashMap::new()),
            rr: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Route one endpoint address to a server.
    pub fn add_route(&self, to: impl Into<String>, addr: SocketAddr) {
        self.routes.write().insert(to.into(), addr);
    }

    /// Route every address without an explicit route to `addr`.
    pub fn set_default_route(&self, addr: SocketAddr) {
        *self.default_route.write() = Some(addr);
    }

    fn route_for(&self, to: &str) -> Option<SocketAddr> {
        if let Some(addr) = self.routes.read().get(to) {
            return Some(*addr);
        }
        *self.default_route.read()
    }

    /// A live connection to `addr`: round-robin over the pool, reviving
    /// dead slots by reconnecting (lazily — a dropped connection costs
    /// nothing until the next request needs its slot).
    fn checkout(&self, addr: SocketAddr) -> Result<Arc<Conn>, BusError> {
        let slot_count = self.config.pool_size.max(1);
        let slot_idx = (self.rr.fetch_add(1, Ordering::Relaxed) % slot_count as u64) as usize;
        {
            let mut pools = self.pools.lock();
            let pool = pools.entry(addr).or_insert_with(|| vec![None; slot_count]);
            if let Some(conn) = &pool[slot_idx] {
                if conn.alive() {
                    return Ok(Arc::clone(conn));
                }
            }
        }
        // Dial outside the pool lock: connect() can block for the full
        // OS connect timeout, and holding the lock would stall every
        // checkout to every address behind this one dial.
        let conn = Conn::open(addr, &self.config)?;
        let mut pools = self.pools.lock();
        let pool = pools.entry(addr).or_insert_with(|| vec![None; slot_count]);
        // Two callers may have dialled the same dead slot concurrently;
        // installing unconditionally keeps the slot live either way and
        // the loser's connection closes when its last user finishes.
        pool[slot_idx] = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn call_once(
        &self,
        addr: SocketAddr,
        to: &str,
        action: &str,
        request: &[u8],
    ) -> Result<Vec<u8>, BusError> {
        let conn = self.checkout(addr)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = ReplySlot::new();
        conn.pending.lock().insert(id, Arc::clone(&slot));

        let mut wire = Vec::with_capacity(request.len() + to.len() + action.len() + 32);
        encode_frame(
            &Frame {
                id,
                body: FrameBody::Request {
                    to: to.to_string(),
                    action: action.to_string(),
                    envelope: request.to_vec(),
                },
            },
            &mut wire,
        );
        let write_result = conn.writer.lock().write_all(&wire);
        if let Err(e) = write_result {
            conn.pending.lock().remove(&id);
            let err = if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut {
                BusError::Timeout(format!("write to {addr} did not complete: {e}"))
            } else {
                conn.fail_all(&BusError::ConnectionLost(format!("write to {addr} failed: {e}")));
                BusError::ConnectionLost(format!("write to {addr} failed: {e}"))
            };
            return Err(err);
        }
        let outcome = slot.wait(Instant::now() + self.config.reply_timeout);
        if outcome.is_err() {
            conn.pending.lock().remove(&id);
        }
        outcome
    }
}

impl Default for TcpTransport {
    fn default() -> TcpTransport {
        TcpTransport::new(TcpConfig::default())
    }
}

impl Transport for TcpTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        let addr = self
            .route_for(to)
            .ok_or_else(|| BusError::ConnectionLost(format!("no TCP route for '{to}'")))?;
        let bytes = self.call_once(addr, to, action, request)?;
        *response = bytes;
        Ok(())
    }

    fn routes(&self, to: &str) -> bool {
        self.route_for(to).is_some()
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

// ---------------------------------------------------------------------------
// Server side: accept loop feeding the bus registry
// ---------------------------------------------------------------------------

/// Server-side knobs for [`TcpServer`].
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Server-wide cap on requests being served at once; a request over
    /// the cap is refused with an [`BusError::Overloaded`] error frame.
    /// `0` means uncapped.
    pub max_in_flight: usize,
    /// The retry-after hint carried by overload refusals.
    pub retry_after: Duration,
    /// Chaos knob for churn tests: close the connection instead of
    /// writing every Nth response (counted server-wide), *after* the
    /// request was dispatched. `0` disables. This is the worst-case
    /// failure for idempotency: the work happened, the reply is lost.
    pub drop_every: u64,
}

impl Default for TcpServerConfig {
    fn default() -> TcpServerConfig {
        TcpServerConfig { max_in_flight: 0, retry_after: Duration::from_millis(25), drop_every: 0 }
    }
}

struct ServerShared {
    bus: Weak<BusInner>,
    config: TcpServerConfig,
    metrics: Metrics,
    journal: Journal,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    responses: AtomicU64,
    accepted: AtomicU64,
}

/// A blocking accept-loop server: every accepted connection gets a
/// thread that reads request frames, serves them through the bus
/// registry (`Bus::serve_wire`), and writes response frames back in
/// order. Connection threads are marked as executor workers, so a
/// service handler calling back into the bus runs inline instead of
/// queueing — the PR 5 starvation-avoidance rule, kept.
pub struct TcpServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<thread::JoinHandle<()>>>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl TcpServer {
    /// Bind with default configuration. `127.0.0.1:0` picks a free port;
    /// read it back with [`local_addr`](TcpServer::local_addr).
    pub fn bind(bus: &Bus, addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
        TcpServer::bind_with(bus, addr, TcpServerConfig::default())
    }

    /// Bind with explicit configuration.
    pub fn bind_with(
        bus: &Bus,
        addr: impl ToSocketAddrs,
        config: TcpServerConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            bus: bus.downgrade(),
            config,
            metrics: bus.obs().metrics.clone(),
            journal: bus.obs().journal.clone(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
        });
        let conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name(format!("dais-tcp-accept-{local_addr}"))
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))?;
        Ok(TcpServer {
            shared,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
            conn_threads,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far (churn tests count reconnects here).
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain connection threads, and join them all.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        let threads: Vec<thread::JoinHandle<()>> = self.conn_threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let idx = shared.accepted.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name(format!("dais-tcp-conn-{idx}"))
                    .spawn(move || connection_loop(stream, conn_shared, idx));
                if let Ok(handle) = spawned {
                    conn_threads.lock().push(handle);
                }
            }
            // Nothing pending on the non-blocking listener, or a
            // transient accept error: back off briefly either way.
            Err(_) => pause(Duration::from_millis(2)),
        }
    }
}

/// Serve one connection: frames are handled serially in arrival order
/// (pipelining across requests comes from the client opening several
/// connections and from multiple clients), which keeps per-connection
/// response ordering trivially correct.
fn connection_loop(mut stream: TcpStream, shared: Arc<ServerShared>, conn_idx: u64) {
    executor::mark_worker_thread();
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(Duration::from_millis(50))).is_err()
    {
        return;
    }
    let label = format!("tcp#{conn_idx}");
    let mut reader = FrameReader::new();
    let mut scratch = [0u8; 64 * 1024];
    let mut wire = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let n = match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return,
        };
        reader.feed(&scratch[..n]);
        loop {
            let frame = match reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // Framing lost: nothing sensible can be written back.
                Err(_) => return,
            };
            let (to, action, envelope) = match frame.body {
                FrameBody::Request { to, action, envelope } => (to, action, envelope),
                // Only clients send non-request frames; drop the peer.
                _ => return,
            };
            let reply = serve_one(&shared, &label, &to, &action, &envelope, frame.id);
            let reply = match reply {
                Some(reply) => reply,
                // The bus behind this server is gone; the closed socket
                // tells the client (ConnectionLost, retryable).
                None => return,
            };
            let drop_every = shared.config.drop_every;
            if drop_every > 0 {
                let nth = shared.responses.fetch_add(1, Ordering::Relaxed) + 1;
                if nth.is_multiple_of(drop_every) {
                    // Chaos: the request WAS dispatched; its reply is
                    // dropped with the connection. Clients must treat
                    // this as ConnectionLost and apply idempotency
                    // rules, not assume the work never happened.
                    return;
                }
            }
            wire.clear();
            encode_frame(&reply, &mut wire);
            if stream.write_all(&wire).is_err() {
                return;
            }
        }
    }
}

/// Serve one request frame through the bus registry. Returns `None` only
/// when the bus has been dropped (the connection closes in response).
fn serve_one(
    shared: &ServerShared,
    label: &str,
    to: &str,
    action: &str,
    envelope: &[u8],
    id: u64,
) -> Option<Frame> {
    let config = &shared.config;
    if config.max_in_flight > 0 {
        let admitted = shared.in_flight.fetch_add(1, Ordering::AcqRel);
        if admitted >= config.max_in_flight as u64 {
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Some(Frame {
                id,
                body: FrameBody::Error(BusError::Overloaded {
                    endpoint: to.to_string(),
                    retry_after: config.retry_after,
                }),
            });
        }
    }
    let outcome = match shared.bus.upgrade() {
        Some(inner) => {
            let bus = Bus::from_inner(inner);
            let started = Instant::now();
            let mut out = Vec::new();
            // Server-side wire legs. The frame codec has not parsed the
            // envelope at this layer, so no trace ids are available yet;
            // the dispatch event the bus emits below joins the trace.
            shared.journal.event(event_names::WIRE_READ, 0, 0, envelope.len() as u64);
            let result = bus.serve_wire(to, action, envelope, &mut out);
            shared.metrics.observe_connection(label, started.elapsed().as_nanos() as u64);
            if result.is_ok() {
                shared.journal.event(event_names::WIRE_WRITE, 0, 0, out.len() as u64);
            }
            Some(match result {
                Ok(()) => Frame { id, body: FrameBody::Response(out) },
                Err(err) => Frame { id, body: FrameBody::Error(err) },
            })
        }
        None => None,
    };
    if config.max_in_flight > 0 {
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_frame(id: u64) -> Frame {
        Frame {
            id,
            body: FrameBody::Request {
                to: "bus://svc".into(),
                action: "urn:echo".into(),
                envelope: b"<env>payload</env>".to_vec(),
            },
        }
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        let frames = vec![
            request_frame(7),
            Frame { id: 8, body: FrameBody::Response(b"<env>ok</env>".to_vec()) },
            Frame { id: 9, body: FrameBody::Error(BusError::NoSuchEndpoint("bus://x".into())) },
            Frame { id: 10, body: FrameBody::Error(BusError::MalformedEnvelope("bad".into())) },
            Frame { id: 11, body: FrameBody::Error(BusError::Timeout("slow".into())) },
            Frame {
                id: 12,
                body: FrameBody::Error(BusError::Overloaded {
                    endpoint: "bus://busy".into(),
                    retry_after: Duration::from_millis(125),
                }),
            },
            Frame { id: 13, body: FrameBody::Error(BusError::ConnectionLost("gone".into())) },
        ];
        for frame in frames {
            let mut wire = Vec::new();
            encode_frame(&frame, &mut wire);
            let (decoded, used) = decode_frame(&wire).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn torn_input_is_incomplete_not_malformed() {
        let mut wire = Vec::new();
        encode_frame(&request_frame(1), &mut wire);
        for cut in 0..wire.len() {
            match decode_frame(&wire[..cut]) {
                Err(FrameError::Incomplete { needed }) => assert!(needed > cut),
                other => panic!("cut at {cut} produced {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut wire = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&wire), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn frame_reader_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        encode_frame(&request_frame(3), &mut wire);
        encode_frame(&Frame { id: 4, body: FrameBody::Response(b"<r/>".to_vec()) }, &mut wire);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for byte in wire {
            reader.feed(&[byte]);
            while let Some(frame) = reader.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], request_frame(3));
        assert_eq!(reader.pending_bytes(), 0);
    }
}
