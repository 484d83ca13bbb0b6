//! The multiplexed serving core shared by every TCP front-end in the
//! workspace.
//!
//! The TAXII server (including its fault-injecting chaos variant), the
//! telemetry scrape endpoint and the bus bridge all speak the same
//! length-prefixed framing ([`crate::frame`]), and a warm response is
//! usually a cached `Arc` memcpy, so connection handling dominates the
//! cost of serving. This module is the one accept loop they share: a
//! **sharded-acceptor + bounded worker pool** core:
//!
//! - One acceptor thread accepts on a nonblocking listener, applies a
//!   max-connection guard, and deals connections round-robin to a
//!   fixed pool of sweep workers. Transient `accept()` failures (e.g.
//!   `EMFILE` under fd pressure) are counted and ridden out with
//!   exponential backoff instead of ending the loop.
//! - Each worker owns a shard of nonblocking connections and sweeps
//!   them: buffered reads are parsed into complete frames by a
//!   per-connection state machine (length word, optional
//!   [`TraceHeader`], payload), handed to the [`FrameService`], and
//!   the replies queued on a bounded outbound queue that is flushed
//!   with nonblocking writes. A sweep that makes no progress parks
//!   with escalating backoff, so idle shards cost almost no CPU.
//! - Backpressure: when a connection's outbound queue exceeds
//!   [`ServeConfig::max_outbound_bytes`], the service's push hook
//!   ([`FrameService::poll`]) is skipped until the peer drains — a
//!   slow consumer throttles itself, not the process.
//! - Idle and stalled-read timeouts close abandoned connections, and
//!   [`ServeHandle::shutdown`] drains pending writes before joining
//!   every thread (graceful shutdown).
//!
//! The core is deliberately `std`-only (no `epoll` binding exists in
//! the offline vendor set, and this crate forbids `unsafe`), so
//! "readiness" is discovered by the nonblocking sweep itself: a full
//! pass over 10k mostly-idle connections is ~10k cheap `EWOULDBLOCK`
//! reads, well under the park cadence. Metrics flow through the
//! [`ServeMetrics`] trait so the core stays independent of
//! `cais-telemetry` (which sits above this crate); `cais-telemetry`
//! provides the `Registry`-backed implementation that surfaces the
//! `serve_*` counter/gauge/histogram family.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::frame::{TraceHeader, MAX_FRAME, TRACE_FLAG, TRACE_HEADER_LEN};

/// Tuning for the serving core. The defaults suit the workspace's
/// request/response protocols; push-style services (the bus bridge)
/// mostly care about [`ServeConfig::max_outbound_bytes`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sweep worker threads. Defaults to the available parallelism
    /// clamped to `[1, 4]` — sweeps are syscall-bound, so more workers
    /// than cores only adds context switching.
    pub workers: usize,
    /// Hard cap on concurrently served connections; connections
    /// accepted beyond it are closed immediately (and counted as
    /// rejected).
    pub max_connections: usize,
    /// Close a connection with no inbound bytes, no queued output and
    /// no partial frame for this long. `None` disables the idle reaper.
    pub idle_timeout: Option<Duration>,
    /// Close a connection whose *partial* frame has made no progress
    /// for this long — a stalled or byte-trickling peer cannot pin a
    /// worker slot forever. `None` disables the stall reaper.
    pub read_timeout: Option<Duration>,
    /// Outbound-queue bound per connection, in bytes. While a
    /// connection's queue exceeds this, [`FrameService::poll`] is not
    /// invoked for it (backpressure on push traffic); request/response
    /// replies are still queued, since the peer produces at most one
    /// request per pending reply.
    pub max_outbound_bytes: usize,
    /// Longest a worker parks between sweeps when nothing progresses;
    /// the park escalates from ~50µs up to this bound.
    pub max_park: Duration,
    /// During [`ServeHandle::shutdown`], how long workers keep
    /// flushing pending writes before abandoning unflushed
    /// connections.
    pub shutdown_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        ServeConfig {
            workers: cores.clamp(1, 4),
            max_connections: 16_384,
            idle_timeout: Some(Duration::from_secs(120)),
            read_timeout: Some(Duration::from_secs(30)),
            max_outbound_bytes: 4 * 1024 * 1024,
            max_park: Duration::from_millis(2),
            shutdown_grace: Duration::from_secs(1),
        }
    }
}

/// Observability hooks the core fires as it serves. Every method has a
/// no-op default, so implementors pick what they surface;
/// `cais-telemetry` provides the `Registry`-backed implementation
/// behind the `serve_*` metric family.
pub trait ServeMetrics: Send + Sync + 'static {
    /// A connection was accepted (before the capacity guard).
    fn accepted(&self) {}
    /// `accept()` failed transiently (e.g. `EMFILE`); the acceptor
    /// backs off and continues.
    fn accept_error(&self) {}
    /// An accepted connection was closed immediately because the
    /// server is at [`ServeConfig::max_connections`].
    fn rejected(&self) {}
    /// A connection was closed (any reason, including timeouts).
    fn closed(&self) {}
    /// A connection was closed by the idle or stalled-read reaper.
    fn timed_out(&self) {}
    /// Current live-connection count, sampled once per sweep.
    fn connections(&self, _live: i64) {}
    /// Total queued-but-unwritten outbound bytes, sampled once per
    /// sweep.
    fn queue_depth(&self, _bytes: i64) {}
    /// A complete inbound frame was parsed.
    fn frame_in(&self) {}
    /// An outbound frame was fully written.
    fn frame_out(&self) {}
    /// Wall time from a request frame's arrival to its reply being
    /// fully written to the socket.
    fn request_nanos(&self, _nanos: u64) {}
}

/// The do-nothing [`ServeMetrics`] implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoServeMetrics;

impl ServeMetrics for NoServeMetrics {}

/// One outbound frame payload. `Shared` lets cached responses (the
/// PR 5 `Arc`-held page bytes) be queued without copying.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A payload owned by this reply.
    Owned(Vec<u8>),
    /// A shared (typically cached) payload.
    Shared(Arc<Vec<u8>>),
}

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Owned(bytes) => bytes,
            Payload::Shared(bytes) => bytes,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty (a keepalive/ack frame).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// The frames a service wants written to the current connection, plus
/// an optional close-after-flush request. Reused across calls by the
/// worker, so services just push.
#[derive(Debug, Default)]
pub struct Outbox {
    items: Vec<(Option<TraceHeader>, Payload)>,
    close: bool,
}

impl Outbox {
    /// Queues an owned payload as one untagged frame.
    pub fn push_owned(&mut self, bytes: Vec<u8>) {
        self.items.push((None, Payload::Owned(bytes)));
    }

    /// Queues a shared payload as one untagged frame, without copying.
    pub fn push_shared(&mut self, bytes: Arc<Vec<u8>>) {
        self.items.push((None, Payload::Shared(bytes)));
    }

    /// Queues an owned payload, tagged with a [`TraceHeader`] when one
    /// is given (the `TRACE_FLAG` wire path). With `None` this is
    /// [`Outbox::push_owned`].
    pub fn push_owned_traced(&mut self, header: Option<TraceHeader>, bytes: Vec<u8>) {
        self.items.push((header, Payload::Owned(bytes)));
    }

    /// Queues a shared payload, tagged with a [`TraceHeader`] when one
    /// is given, without copying the payload.
    pub fn push_shared_traced(&mut self, header: Option<TraceHeader>, bytes: Arc<Vec<u8>>) {
        self.items.push((header, Payload::Shared(bytes)));
    }

    /// Requests the connection be closed once queued frames flush.
    pub fn close(&mut self) {
        self.close = true;
    }

    /// Frames queued so far in this call.
    pub fn queued(&self) -> usize {
        self.items.len()
    }
}

/// A protocol served by the core: per-connection state plus frame and
/// push hooks. Implementations must be cheap to call — they run on the
/// sweep workers.
pub trait FrameService: Send + Sync + 'static {
    /// Per-connection state (the protocol's state machine).
    type Conn: Send + 'static;

    /// Called once when a connection is adopted by a worker.
    fn on_connect(&self, peer: SocketAddr) -> Self::Conn;

    /// Called for every complete inbound frame. Replies pushed to
    /// `out` are written back in order; the reply completing this
    /// request is the *last* one pushed, and its full write latency is
    /// recorded as the request→response time.
    fn on_frame(
        &self,
        conn: &mut Self::Conn,
        header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    );

    /// Called once per sweep for push-style traffic (the bus bridge's
    /// subscription fan-out, keepalives). Skipped while the
    /// connection's outbound queue exceeds the backpressure bound.
    fn poll(&self, _conn: &mut Self::Conn, _now: Instant, _out: &mut Outbox) {}

    /// Called when the connection is closed for any reason.
    fn on_disconnect(&self, _conn: &mut Self::Conn) {}
}

#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    accept_errors: AtomicU64,
    rejected: AtomicU64,
    closed: AtomicU64,
    timeouts: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    live: AtomicI64,
    queued_bytes: AtomicI64,
}

/// A point-in-time snapshot of the core's counters, for tests and the
/// load-generation harness (drop detection: every request frame must
/// produce a reply frame).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted (including later-rejected ones).
    pub accepted: u64,
    /// Transient `accept()` errors ridden out with backoff.
    pub accept_errors: u64,
    /// Connections closed at the capacity guard.
    pub rejected: u64,
    /// Connections closed, any reason.
    pub closed: u64,
    /// Connections closed by the idle/stalled-read reapers.
    pub timeouts: u64,
    /// Complete frames parsed.
    pub frames_in: u64,
    /// Frames fully written.
    pub frames_out: u64,
    /// Payload + framing bytes read.
    pub bytes_in: u64,
    /// Payload + framing bytes written.
    pub bytes_out: u64,
    /// Currently live connections.
    pub live: i64,
    /// Currently queued outbound bytes across all connections.
    pub queued_bytes: i64,
}

struct Shared<S: FrameService, M: ServeMetrics> {
    service: S,
    metrics: M,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    stats: StatsInner,
}

type Inbox = Arc<Mutex<Vec<(TcpStream, SocketAddr)>>>;

/// A handle to a running server: its bound address, live counters and
/// graceful shutdown. Dropping the handle *without* calling
/// [`ServeHandle::shutdown`] leaves the server running detached for
/// the life of the process.
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<dyn Fn() -> ServeStats + Send + Sync>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the core's counters.
    pub fn stats(&self) -> ServeStats {
        (self.stats)()
    }

    /// Graceful shutdown: stops accepting, lets workers flush pending
    /// writes (bounded by [`ServeConfig::shutdown_grace`]), closes
    /// every connection and joins all threads. Returns the final
    /// counter snapshot.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown.store(true, Ordering::Release);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        (self.stats)()
    }
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Binds `addr` and serves `service` on the multiplexed core.
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn serve<S: FrameService, M: ServeMetrics>(
    addr: &str,
    config: ServeConfig,
    service: S,
    metrics: M,
) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let workers = config.workers.max(1);
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        service,
        metrics,
        config,
        shutdown: Arc::clone(&shutdown),
        stats: StatsInner::default(),
    });
    let inboxes: Vec<Inbox> = (0..workers).map(|_| Inbox::default()).collect();
    let mut threads = Vec::with_capacity(workers + 1);
    for (index, inbox) in inboxes.iter().enumerate() {
        let shared = Arc::clone(&shared);
        let inbox = Arc::clone(inbox);
        threads.push(
            thread::Builder::new()
                .name(format!("cais-serve-worker-{index}"))
                .spawn(move || Worker::new(shared, inbox).run())?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("cais-serve-accept".into())
                .spawn(move || acceptor_loop(listener, shared, inboxes))?,
        );
    }
    let stats_view = Arc::clone(&shared);
    Ok(ServeHandle {
        addr: local_addr,
        shutdown,
        stats: Arc::new(move || snapshot(&stats_view.stats)),
        threads,
    })
}

fn acceptor_loop<S: FrameService, M: ServeMetrics>(
    listener: TcpListener,
    shared: Arc<Shared<S, M>>,
    inboxes: Vec<Inbox>,
) {
    const ERROR_BACKOFF_FLOOR: Duration = Duration::from_millis(1);
    const ERROR_BACKOFF_CEIL: Duration = Duration::from_secs(1);
    const IDLE_PARK_FLOOR: Duration = Duration::from_micros(100);
    let idle_park_ceil = shared.config.max_park;
    let mut error_backoff = ERROR_BACKOFF_FLOOR;
    let mut idle_park = IDLE_PARK_FLOOR;
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, peer)) => {
                error_backoff = ERROR_BACKOFF_FLOOR;
                idle_park = IDLE_PARK_FLOOR;
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                shared.metrics.accepted();
                let live = shared.stats.live.load(Ordering::Relaxed);
                if live >= shared.config.max_connections as i64 {
                    // Capacity guard: close instead of serving. The
                    // peer sees a clean EOF rather than a hung socket.
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.rejected();
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.rejected();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared.stats.live.fetch_add(1, Ordering::Relaxed);
                inboxes[next]
                    .lock()
                    .expect("serve inbox poisoned")
                    .push((stream, peer));
                next = (next + 1) % inboxes.len();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(idle_park);
                idle_park = (idle_park * 2).min(idle_park_ceil);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure — classically EMFILE when
                // the process runs out of descriptors. Back off and
                // keep accepting; ending the loop would silently kill
                // the endpoint for every future client.
                shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                shared.metrics.accept_error();
                thread::sleep(error_backoff);
                error_backoff = (error_backoff * 2).min(ERROR_BACKOFF_CEIL);
            }
        }
    }
}

struct WriteItem {
    /// The frame head: 4-byte length word, plus the 16 [`TraceHeader`]
    /// bytes when the reply is trace-tagged (`TRACE_FLAG` set in the
    /// word).
    head: [u8; 4 + TRACE_HEADER_LEN],
    head_len: usize,
    payload: Payload,
    /// Write progress over the logical `head ++ payload` buffer.
    pos: usize,
    /// When the request frame that produced this reply was parsed;
    /// completion records the request→response latency.
    started: Option<Instant>,
}

impl WriteItem {
    fn new(header: Option<TraceHeader>, payload: Payload, started: Option<Instant>) -> Self {
        let mut head = [0u8; 4 + TRACE_HEADER_LEN];
        let head_len = match header {
            Some(h) => {
                head[..4].copy_from_slice(&((payload.len() as u32) | TRACE_FLAG).to_be_bytes());
                head[4..].copy_from_slice(&h.to_bytes());
                4 + TRACE_HEADER_LEN
            }
            None => {
                head[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
                4
            }
        };
        WriteItem {
            head,
            head_len,
            payload,
            pos: 0,
            started,
        }
    }

    fn total_len(&self) -> usize {
        self.head_len + self.payload.len()
    }
}

/// Floor/ceiling of the per-connection read-recheck backoff. Without
/// it every sweep pays one `read` syscall per adopted connection, so a
/// shard full of *waiting* peers makes the worker's sweep cost scale
/// with total connections rather than active ones. Backing off sockets
/// that keep returning `WouldBlock` bounds the idle-connection tax at
/// the cost of up to [`READ_BACKOFF_CEIL`] of added first-byte latency
/// on a quiet connection.
const READ_BACKOFF_FLOOR: Duration = Duration::from_micros(50);
const READ_BACKOFF_CEIL: Duration = Duration::from_millis(1);

struct Connection<C> {
    stream: TcpStream,
    state: C,
    /// Accumulated unparsed inbound bytes.
    buf: Vec<u8>,
    pending: VecDeque<WriteItem>,
    queued_bytes: usize,
    last_activity: Instant,
    /// Next instant the socket is worth a read syscall.
    next_read: Instant,
    /// Current read-recheck backoff window.
    read_backoff: Duration,
    /// Flush pending writes, then close.
    closing: bool,
    /// Close immediately (peer gone or protocol error).
    dead: bool,
    timed_out: bool,
}

struct Worker<S: FrameService, M: ServeMetrics> {
    shared: Arc<Shared<S, M>>,
    inbox: Inbox,
    conns: Vec<Connection<S::Conn>>,
    scratch: Vec<u8>,
    outbox: Outbox,
}

impl<S: FrameService, M: ServeMetrics> Worker<S, M> {
    fn new(shared: Arc<Shared<S, M>>, inbox: Inbox) -> Self {
        Worker {
            shared,
            inbox,
            conns: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
            outbox: Outbox::default(),
        }
    }

    fn run(mut self) {
        const PARK_FLOOR: Duration = Duration::from_micros(50);
        let park_ceil = self.shared.config.max_park;
        let mut park = PARK_FLOOR;
        let mut shutdown_deadline: Option<Instant> = None;
        loop {
            let shutting = self.shared.shutdown.load(Ordering::Acquire);
            self.adopt(shutting);
            let now = Instant::now();
            let mut progress = false;
            for index in 0..self.conns.len() {
                progress |= self.sweep(index, now, shutting);
            }
            self.reap();
            self.shared
                .metrics
                .connections(self.shared.stats.live.load(Ordering::Relaxed));
            self.shared
                .metrics
                .queue_depth(self.shared.stats.queued_bytes.load(Ordering::Relaxed));
            if shutting {
                let deadline = *shutdown_deadline
                    .get_or_insert_with(|| now + self.shared.config.shutdown_grace);
                if self.conns.iter().all(|c| c.pending.is_empty()) || now >= deadline {
                    for conn in &mut self.conns {
                        conn.dead = true;
                    }
                    self.reap();
                    return;
                }
            }
            if progress {
                park = PARK_FLOOR;
            } else {
                thread::sleep(park);
                park = (park * 2).min(park_ceil);
            }
        }
    }

    /// Moves newly accepted connections from the inbox into this
    /// worker's shard.
    fn adopt(&mut self, shutting: bool) {
        let adopted: Vec<(TcpStream, SocketAddr)> = {
            let mut inbox = self.inbox.lock().expect("serve inbox poisoned");
            if inbox.is_empty() {
                return;
            }
            inbox.drain(..).collect()
        };
        for (stream, peer) in adopted {
            let state = self.shared.service.on_connect(peer);
            let now = Instant::now();
            self.conns.push(Connection {
                stream,
                state,
                buf: Vec::new(),
                pending: VecDeque::new(),
                queued_bytes: 0,
                last_activity: now,
                next_read: now,
                read_backoff: READ_BACKOFF_FLOOR,
                closing: shutting,
                dead: false,
                timed_out: false,
            });
        }
    }

    /// One pass over one connection: flush, read, parse, serve, poll,
    /// flush, reap timeouts. Returns whether any byte moved.
    fn sweep(&mut self, index: usize, now: Instant, shutting: bool) -> bool {
        let mut progress = false;
        progress |= self.flush(index, now);
        if !self.conns[index].closing && !self.conns[index].dead && !shutting {
            progress |= self.read_and_serve(index, now);
        }
        {
            let conn = &mut self.conns[index];
            if shutting {
                conn.closing = true;
            }
        }
        if !self.conns[index].closing
            && !self.conns[index].dead
            && self.conns[index].queued_bytes < self.shared.config.max_outbound_bytes
        {
            let conn = &mut self.conns[index];
            self.outbox.items.clear();
            self.outbox.close = false;
            self.shared
                .service
                .poll(&mut conn.state, now, &mut self.outbox);
            progress |= self.enqueue_outbox(index, None);
        }
        progress |= self.flush(index, now);
        let conn = &mut self.conns[index];
        if conn.closing && conn.pending.is_empty() {
            conn.dead = true;
        }
        if !conn.dead {
            if let Some(read_timeout) = self.shared.config.read_timeout {
                if !conn.buf.is_empty() && now.duration_since(conn.last_activity) > read_timeout {
                    conn.timed_out = true;
                    conn.dead = true;
                }
            }
        }
        if !conn.dead {
            if let Some(idle_timeout) = self.shared.config.idle_timeout {
                if conn.buf.is_empty()
                    && conn.pending.is_empty()
                    && now.duration_since(conn.last_activity) > idle_timeout
                {
                    conn.timed_out = true;
                    conn.dead = true;
                }
            }
        }
        progress
    }

    /// Nonblocking reads, frame parsing and service dispatch for one
    /// connection.
    fn read_and_serve(&mut self, index: usize, now: Instant) -> bool {
        if now < self.conns[index].next_read {
            return false;
        }
        let mut progress = false;
        // Bounded reads per sweep keep one firehose peer from starving
        // its shard-mates.
        for _ in 0..4 {
            let conn = &mut self.conns[index];
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&self.scratch[..n]);
                    conn.last_activity = now;
                    self.shared
                        .stats
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    progress = true;
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        {
            let conn = &mut self.conns[index];
            if progress {
                conn.next_read = now;
                conn.read_backoff = READ_BACKOFF_FLOOR;
            } else {
                conn.next_read = now + conn.read_backoff;
                conn.read_backoff = (conn.read_backoff * 2).min(READ_BACKOFF_CEIL);
            }
        }
        if self.conns[index].dead {
            return progress;
        }
        // Parse every complete frame that arrived.
        loop {
            let (header, payload, consumed) = {
                let conn = &self.conns[index];
                match parse_frame(&conn.buf) {
                    Ok(Some(parsed)) => parsed,
                    Ok(None) => break,
                    Err(_) => {
                        // Oversized or corrupt length word: the stream
                        // cannot be resynchronised, drop the peer.
                        self.conns[index].dead = true;
                        return progress;
                    }
                }
            };
            let conn = &mut self.conns[index];
            conn.buf.drain(..consumed);
            self.shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
            self.shared.metrics.frame_in();
            let started = Instant::now();
            self.outbox.items.clear();
            self.outbox.close = false;
            self.shared
                .service
                .on_frame(&mut conn.state, header, payload, &mut self.outbox);
            self.enqueue_outbox(index, Some(started));
            progress = true;
            if self.conns[index].closing {
                break;
            }
        }
        progress
    }

    /// Moves the worker outbox into the connection's pending write
    /// queue; the last reply of a request carries `started` so its
    /// flush records the request→response latency.
    fn enqueue_outbox(&mut self, index: usize, started: Option<Instant>) -> bool {
        let conn = &mut self.conns[index];
        let count = self.outbox.items.len();
        for (i, (header, payload)) in self.outbox.items.drain(..).enumerate() {
            let item = WriteItem::new(header, payload, if i + 1 == count { started } else { None });
            conn.queued_bytes += item.total_len();
            self.shared
                .stats
                .queued_bytes
                .fetch_add(item.total_len() as i64, Ordering::Relaxed);
            conn.pending.push_back(item);
        }
        if self.outbox.close {
            conn.closing = true;
        }
        count > 0
    }

    /// Writes as much pending output as the socket accepts.
    fn flush(&mut self, index: usize, now: Instant) -> bool {
        let conn = &mut self.conns[index];
        let mut progress = false;
        'items: while let Some(front) = conn.pending.front_mut() {
            let total = front.total_len();
            while front.pos < total {
                let result = if front.pos < front.head_len {
                    conn.stream.write(&front.head[front.pos..front.head_len])
                } else {
                    conn.stream
                        .write(&front.payload.as_slice()[front.pos - front.head_len..])
                };
                match result {
                    Ok(0) => {
                        conn.dead = true;
                        break 'items;
                    }
                    Ok(n) => {
                        front.pos += n;
                        conn.queued_bytes -= n;
                        conn.last_activity = now;
                        self.shared
                            .stats
                            .bytes_out
                            .fetch_add(n as u64, Ordering::Relaxed);
                        self.shared
                            .stats
                            .queued_bytes
                            .fetch_sub(n as i64, Ordering::Relaxed);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'items,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        break 'items;
                    }
                }
            }
            self.shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            self.shared.metrics.frame_out();
            if let Some(started) = front.started {
                self.shared
                    .metrics
                    .request_nanos(started.elapsed().as_nanos() as u64);
            }
            conn.pending.pop_front();
        }
        if conn.dead && conn.queued_bytes > 0 {
            // Give dropped bytes back to the global gauge.
            self.shared
                .stats
                .queued_bytes
                .fetch_sub(conn.queued_bytes as i64, Ordering::Relaxed);
            conn.queued_bytes = 0;
            conn.pending.clear();
        }
        if progress {
            // A peer that just received a reply tends to answer (next
            // request, or FIN) right away — check its socket promptly.
            conn.next_read = now;
            conn.read_backoff = READ_BACKOFF_FLOOR;
        }
        progress
    }

    /// Drops dead connections and fires the close accounting.
    fn reap(&mut self) {
        let shared = &self.shared;
        self.conns.retain_mut(|conn| {
            if !conn.dead {
                return true;
            }
            if conn.queued_bytes > 0 {
                shared
                    .stats
                    .queued_bytes
                    .fetch_sub(conn.queued_bytes as i64, Ordering::Relaxed);
            }
            shared.service.on_disconnect(&mut conn.state);
            shared.stats.closed.fetch_add(1, Ordering::Relaxed);
            shared.stats.live.fetch_sub(1, Ordering::Relaxed);
            shared.metrics.closed();
            if conn.timed_out {
                shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                shared.metrics.timed_out();
            }
            false
        });
    }
}

type ParsedFrame = (Option<TraceHeader>, Vec<u8>, usize);

/// Parses one frame from the front of `buf`: `Ok(None)` when more
/// bytes are needed, `Err` when the length word is oversized.
fn parse_frame(buf: &[u8]) -> io::Result<Option<ParsedFrame>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let word = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let (header_len, len) = if word & TRACE_FLAG != 0 {
        (TRACE_HEADER_LEN, word & !TRACE_FLAG)
    } else {
        (0, word)
    };
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let total = 4 + header_len + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let header = if header_len > 0 {
        let mut bytes = [0u8; TRACE_HEADER_LEN];
        bytes.copy_from_slice(&buf[4..4 + TRACE_HEADER_LEN]);
        Some(TraceHeader::from_bytes(&bytes))
    } else {
        None
    };
    let payload = buf[4 + header_len..total].to_vec();
    Ok(Some((header, payload, total)))
}

fn snapshot(stats: &StatsInner) -> ServeStats {
    ServeStats {
        accepted: stats.accepted.load(Ordering::Relaxed),
        accept_errors: stats.accept_errors.load(Ordering::Relaxed),
        rejected: stats.rejected.load(Ordering::Relaxed),
        closed: stats.closed.load(Ordering::Relaxed),
        timeouts: stats.timeouts.load(Ordering::Relaxed),
        frames_in: stats.frames_in.load(Ordering::Relaxed),
        frames_out: stats.frames_out.load(Ordering::Relaxed),
        bytes_in: stats.bytes_in.load(Ordering::Relaxed),
        bytes_out: stats.bytes_out.load(Ordering::Relaxed),
        live: stats.live.load(Ordering::Relaxed),
        queued_bytes: stats.queued_bytes.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, read_frame_traced, write_frame, write_frame_traced};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Echoes every frame back, preserving the trace header; replies to
    /// the payload `"shared"` with a cached `Arc` buffer and closes on
    /// `"quit"`.
    struct Echo {
        cached: Arc<Vec<u8>>,
    }

    impl Default for Echo {
        fn default() -> Self {
            Echo {
                cached: Arc::new(b"cached-shared-reply".to_vec()),
            }
        }
    }

    impl FrameService for Echo {
        type Conn = ();
        fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {}
        fn on_frame(
            &self,
            _conn: &mut Self::Conn,
            header: Option<TraceHeader>,
            payload: Vec<u8>,
            out: &mut Outbox,
        ) {
            match payload.as_slice() {
                b"quit" => out.close(),
                b"shared" => out.push_shared(Arc::clone(&self.cached)),
                _ => out.push_owned_traced(header, payload),
            }
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn echo_roundtrip_owned_and_shared() {
        let handle = serve(
            "127.0.0.1:0",
            quick_config(),
            Echo::default(),
            NoServeMetrics,
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut stream, b"hello serve").unwrap();
        let (header, echoed) = read_frame_traced(&mut stream).unwrap();
        assert!(header.is_none());
        assert_eq!(echoed, b"hello serve");

        write_frame(&mut stream, b"shared").unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(reply, b"cached-shared-reply");

        // The server counts a frame once it is written, which can be
        // after the client has read it: wait for the count.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().frames_out < 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let stats = handle.stats();
        assert_eq!(stats.accepted, 1);
        assert!(stats.frames_in >= 2);
        assert!(stats.frames_out >= 2);
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn trace_header_passes_through() {
        let handle = serve(
            "127.0.0.1:0",
            quick_config(),
            Echo::default(),
            NoServeMetrics,
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let header = TraceHeader {
            trace_id: 0xfeed_beef_dead_cafe,
            span_id: 0x1234_5678_9abc_def0,
        };
        write_frame_traced(&mut stream, Some(header), b"traced payload").unwrap();
        let (echoed_header, payload) = read_frame_traced(&mut stream).unwrap();
        assert_eq!(echoed_header, Some(header));
        assert_eq!(payload, b"traced payload");
        handle.shutdown();
    }

    #[test]
    fn service_close_ends_connection() {
        let handle = serve(
            "127.0.0.1:0",
            quick_config(),
            Echo::default(),
            NoServeMetrics,
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut stream, b"quit").unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "close without a reply sends nothing");
        handle.shutdown();
    }

    #[test]
    fn fragmented_and_pipelined_frames_parse() {
        let handle = serve(
            "127.0.0.1:0",
            quick_config(),
            Echo::default(),
            NoServeMetrics,
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Two pipelined frames written in deliberately awkward chunks.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first frame").unwrap();
        write_frame(&mut wire, b"second frame").unwrap();
        for chunk in wire.chunks(3) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(read_frame(&mut stream).unwrap(), b"first frame");
        assert_eq!(read_frame(&mut stream).unwrap(), b"second frame");
        handle.shutdown();
    }

    #[test]
    fn max_connections_guard_rejects_excess() {
        let config = ServeConfig {
            workers: 1,
            max_connections: 2,
            ..ServeConfig::default()
        };
        let handle = serve("127.0.0.1:0", config, Echo::default(), NoServeMetrics).unwrap();
        let mut keep = Vec::new();
        for _ in 0..2 {
            let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write_frame(&mut stream, b"ping").unwrap();
            assert_eq!(read_frame(&mut stream).unwrap(), b"ping");
            keep.push(stream);
        }
        // The third connection must be turned away with a clean EOF.
        let mut extra = TcpStream::connect(handle.local_addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        extra.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty());
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().rejected == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.stats().rejected, 1);
        drop(keep);
        handle.shutdown();
    }

    #[test]
    fn idle_timeout_reaps_silent_connections() {
        let config = ServeConfig {
            workers: 1,
            idle_timeout: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        };
        let handle = serve("127.0.0.1:0", config, Echo::default(), NoServeMetrics).unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty(), "idle close is a clean EOF");
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().timeouts == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let stats = handle.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.closed, 1);
        handle.shutdown();
    }

    #[test]
    fn graceful_shutdown_joins_and_reports() {
        let handle = serve(
            "127.0.0.1:0",
            quick_config(),
            Echo::default(),
            NoServeMetrics,
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut stream, b"ping").unwrap();
        assert_eq!(read_frame(&mut stream).unwrap(), b"ping");
        let addr = handle.local_addr();
        let stats = handle.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.live, 0, "all connections reaped at shutdown");
        // The listener is gone: a fresh connect cannot complete a frame
        // roundtrip (accept queue may take the SYN, but nobody serves).
        let probe = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut probe) = probe {
            probe
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            write_frame(&mut probe, b"ping").unwrap();
            assert!(read_frame(&mut probe).is_err());
        }
    }

    #[test]
    fn oversized_length_word_drops_peer() {
        let handle = serve(
            "127.0.0.1:0",
            quick_config(),
            Echo::default(),
            NoServeMetrics,
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let word = (MAX_FRAME + 1).to_be_bytes();
        stream.write_all(&word).unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty(), "corrupt stream closed without reply");
        handle.shutdown();
    }

    #[test]
    fn parse_frame_handles_partials_and_flagged_words() {
        assert!(parse_frame(&[]).unwrap().is_none());
        assert!(parse_frame(&[0, 0]).unwrap().is_none());
        let mut wire = Vec::new();
        let header = TraceHeader {
            trace_id: 7,
            span_id: 9,
        };
        write_frame_traced(&mut wire, Some(header), b"abc").unwrap();
        assert!(parse_frame(&wire[..wire.len() - 1]).unwrap().is_none());
        let (parsed_header, payload, consumed) = parse_frame(&wire).unwrap().unwrap();
        assert_eq!(parsed_header, Some(header));
        assert_eq!(payload, b"abc");
        assert_eq!(consumed, wire.len());
        let oversized = (MAX_FRAME + 1).to_be_bytes();
        assert!(parse_frame(&oversized).is_err());
    }
}
