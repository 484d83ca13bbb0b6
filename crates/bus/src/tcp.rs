//! A length-prefixed TCP transport bridging a [`Broker`] across
//! processes.
//!
//! The wire format is a 4-byte big-endian length followed by a JSON
//! [`Message`]. A client connects, sends one frame containing its
//! subscription pattern as a JSON string, and then receives every
//! matching message the broker publishes — the same shape as MISP's
//! zmq PUB socket.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cais_common::frame::TraceHeader;
use cais_common::serve::{
    self, FrameService, NoServeMetrics, Outbox, ServeConfig, ServeHandle, ServeMetrics,
};
use cais_telemetry::Counter;

// The framing lives in cais-common so other TCP surfaces (the
// telemetry scrape endpoint) share one wire format; re-exported here
// for compatibility.
pub use cais_common::frame::{read_frame, write_frame, MAX_FRAME};

use crate::broker::Broker;
use crate::message::Message;

/// A TCP bridge publishing a broker's traffic to remote subscribers.
///
/// # Examples
///
/// ```
/// use cais_bus::{Broker, Topic};
/// use cais_bus::tcp::{BusServer, BusClient};
///
/// let broker = Broker::new();
/// let server = BusServer::bind(broker.clone(), "127.0.0.1:0")?;
/// let client = BusClient::connect(server.local_addr(), "misp.#")?;
/// broker.publish(Topic::new("misp.event.created"), serde_json::json!(7));
/// let msg = client.recv_timeout(std::time::Duration::from_secs(2)).expect("delivered");
/// assert_eq!(msg.payload, serde_json::json!(7));
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct BusServer {
    local_addr: SocketAddr,
    dropped: Arc<AtomicU64>,
}

/// Tuning for a [`BusServer`].
#[derive(Debug, Clone, Default)]
pub struct BusServerOptions {
    /// Bound on each client's send queue: when a slow client's queue
    /// exceeds this, the oldest messages are dropped (and accounted)
    /// rather than letting the queue grow without limit. `None` means
    /// unbounded, the legacy behaviour.
    pub max_queued: Option<usize>,
    /// When set, dropped messages are also counted in the registry
    /// under `bus_tcp_dropped_total`.
    pub registry: Option<cais_telemetry::Registry>,
}

impl BusServer {
    /// Binds a listener and serves broker traffic to every client that
    /// connects. The accept loop runs on a background thread for the
    /// lifetime of the process.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind(broker: Broker, addr: &str) -> io::Result<Self> {
        BusServer::bind_with(broker, addr, BusServerOptions::default())
    }

    /// [`BusServer::bind`] with an explicit send-queue bound and
    /// optional drop telemetry. Serves on the multiplexed core
    /// ([`cais_common::serve`]); use [`BusServer::bind_on_core`] for
    /// explicit core configuration, `serve_*` metrics and graceful
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_with(broker: Broker, addr: &str, options: BusServerOptions) -> io::Result<Self> {
        let (server, handle) = BusServer::bind_on_core(
            broker,
            addr,
            options,
            ServeConfig::default(),
            NoServeMetrics,
        )?;
        // Dropping the handle leaves the core's threads detached, which
        // keeps this method's serve-forever contract.
        drop(handle);
        Ok(server)
    }

    /// [`BusServer::bind_with`] on an explicitly configured serving
    /// core, returning the [`ServeHandle`] alongside the server for
    /// counters and graceful shutdown. Pair with
    /// `cais_telemetry::RegistryServeMetrics::new(&registry, "bus")` to
    /// surface the bridge's `serve_*` family.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_on_core<M: ServeMetrics>(
        broker: Broker,
        addr: &str,
        options: BusServerOptions,
        config: ServeConfig,
        metrics: M,
    ) -> io::Result<(Self, ServeHandle)> {
        let dropped = Arc::new(AtomicU64::new(0));
        let service = BusService {
            broker,
            max_queued: options.max_queued,
            dropped: Arc::clone(&dropped),
            counter: options
                .registry
                .as_ref()
                .map(|r| r.counter("bus_tcp_dropped_total")),
        };
        let handle = serve::serve(addr, config, service, metrics)?;
        let server = BusServer {
            local_addr: handle.local_addr(),
            dropped,
        };
        Ok((server, handle))
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Messages dropped across all clients because a bounded send
    /// queue overflowed.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

/// How often a streaming connection with no traffic probes liveness
/// with a zero-length keepalive frame, so a subscriber that went away
/// is noticed by the failed write.
const KEEPALIVE_EVERY: Duration = Duration::from_millis(200);

/// Messages fanned out to one subscriber per sweep; bounds how long a
/// busy subscription can monopolize its worker shard.
const FANOUT_BUDGET: usize = 32;

/// One bridged subscriber's state on the multiplexed core.
enum BusConn {
    /// Waiting for the first frame: the subscription pattern.
    AwaitingPattern,
    /// Handshake done; the broker's traffic streams out.
    Streaming {
        subscription: crate::broker::Subscription,
        last_send: Instant,
    },
}

/// The PUB-style bridge protocol as a [`FrameService`]: a pattern
/// handshake, then push-only fan-out driven by [`FrameService::poll`]
/// (which the core skips while the connection's outbound queue is over
/// the backpressure bound — a slow consumer throttles its own stream).
struct BusService {
    broker: Broker,
    max_queued: Option<usize>,
    dropped: Arc<AtomicU64>,
    counter: Option<Counter>,
}

impl FrameService for BusService {
    type Conn = BusConn;

    fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {
        BusConn::AwaitingPattern
    }

    fn on_frame(
        &self,
        conn: &mut Self::Conn,
        _header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    ) {
        match conn {
            BusConn::AwaitingPattern => {
                let Ok(pattern) = serde_json::from_slice::<String>(&payload) else {
                    out.close();
                    return;
                };
                let subscription = self.broker.subscribe(pattern.as_str());
                // Ack the handshake with an empty frame so the client
                // knows the subscription is live before it lets its
                // caller publish.
                out.push_owned(Vec::new());
                *conn = BusConn::Streaming {
                    subscription,
                    last_send: Instant::now(),
                };
            }
            // The stream is push-only: frames a client sends after the
            // handshake are ignored.
            BusConn::Streaming { .. } => {}
        }
    }

    fn poll(&self, conn: &mut Self::Conn, now: Instant, out: &mut Outbox) {
        let BusConn::Streaming {
            subscription,
            last_send,
        } = conn
        else {
            return;
        };
        // Enforce the send-queue bound first: shed the oldest messages
        // a slow client will never catch up on, and account for every
        // one shed.
        if let Some(bound) = self.max_queued {
            let mut excess = subscription.queued().saturating_sub(bound);
            while excess > 0 && subscription.try_recv().is_some() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(counter) = &self.counter {
                    counter.inc();
                }
                excess -= 1;
            }
        }
        let mut sent = 0;
        while sent < FANOUT_BUDGET {
            let Some(message) = subscription.try_recv() else {
                break;
            };
            let Ok(bytes) = serde_json::to_vec(&message) else {
                out.close();
                return;
            };
            out.push_owned(bytes);
            *last_send = now;
            sent += 1;
        }
        if sent == 0 && now.duration_since(*last_send) >= KEEPALIVE_EVERY {
            // Probe liveness with a zero-length keepalive frame.
            out.push_owned(Vec::new());
            *last_send = now;
        }
    }
}

/// Default socket write/handshake timeout for [`BusClient::connect`].
/// A hung or half-dead server fails the handshake with a timeout error
/// instead of blocking the subscriber forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A remote subscriber receiving bus messages over TCP.
pub struct BusClient {
    stream: TcpStream,
}

impl BusClient {
    /// Connects and registers the given subscription pattern, with
    /// [`DEFAULT_IO_TIMEOUT`] on socket writes.
    ///
    /// # Errors
    ///
    /// Returns connection or handshake I/O errors.
    pub fn connect(addr: SocketAddr, pattern: &str) -> io::Result<Self> {
        Self::connect_with_timeout(addr, pattern, Some(DEFAULT_IO_TIMEOUT))
    }

    /// [`BusClient::connect`] with an explicit socket write/handshake
    /// timeout (`None` blocks writes indefinitely, the pre-timeout
    /// behaviour; the handshake ack read then falls back to a 10s
    /// guard). Receive timeouts are per-call — see
    /// [`BusClient::recv_timeout`] — and unaffected by this setting.
    ///
    /// # Errors
    ///
    /// Returns connection or handshake I/O errors.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        pattern: &str,
        timeout: Option<Duration>,
    ) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_write_timeout(timeout)?;
        let frame = serde_json::to_vec(pattern)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        write_frame(&mut stream, &frame)?;
        // Wait for the server's empty ack frame: once it arrives the
        // subscription is registered and no published message can race
        // past it.
        stream.set_read_timeout(Some(timeout.unwrap_or(Duration::from_secs(10))))?;
        let ack = read_frame(&mut stream)?;
        if !ack.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected empty handshake ack",
            ));
        }
        Ok(BusClient { stream })
    }

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// Returns `None` on timeout or when the connection closed. Use
    /// [`BusClient::recv_step`] to tell the two apart (a reconnecting
    /// wrapper must).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        match self.recv_step(timeout) {
            RecvStep::Message(message) => Some(message),
            RecvStep::Timeout | RecvStep::Closed => None,
        }
    }

    /// Receives the next message, distinguishing an idle timeout from a
    /// lost connection.
    pub fn recv_step(&self, timeout: Duration) -> RecvStep {
        let deadline = std::time::Instant::now() + timeout;
        let mut stream = &self.stream;
        loop {
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return RecvStep::Timeout;
            };
            if self.stream.set_read_timeout(Some(remaining)).is_err() {
                return RecvStep::Closed;
            }
            match read_frame(&mut stream) {
                Ok(frame) if frame.is_empty() => continue, // keepalive
                Ok(frame) => match serde_json::from_slice(&frame) {
                    Ok(message) => return RecvStep::Message(message),
                    Err(_) => return RecvStep::Closed,
                },
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return RecvStep::Timeout
                }
                Err(_) => return RecvStep::Closed,
            }
        }
    }
}

/// One step of [`BusClient::recv_step`].
#[derive(Debug)]
pub enum RecvStep {
    /// A message arrived.
    Message(Message),
    /// The wait elapsed with the connection still healthy.
    Timeout,
    /// The connection is gone (closed, reset, or corrupt frame).
    Closed,
}

impl std::fmt::Debug for BusClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusClient")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::Topic;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf.len(), 9);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
    }

    #[test]
    fn frame_rejects_oversize() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn silent_server_fails_handshake_instead_of_hanging() {
        // A listener that accepts and never acks the subscription: the
        // handshake must fail with a timeout, not block forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = thread::spawn(move || listener.accept());
        let error =
            BusClient::connect_with_timeout(addr, "misp.#", Some(Duration::from_millis(100)))
                .expect_err("silent server must time out the handshake");
        assert!(
            matches!(
                error.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {error:?}"
        );
        drop(hold);
    }

    #[test]
    fn frame_eof_mid_payload_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // cut payload short
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn end_to_end_over_tcp() {
        let broker = Broker::new();
        let server = BusServer::bind(broker.clone(), "127.0.0.1:0").unwrap();
        let client = BusClient::connect(server.local_addr(), "misp.#").unwrap();
        // Give the server a moment to register the subscription.
        std::thread::sleep(Duration::from_millis(100));
        broker.publish(
            Topic::new("misp.event.created"),
            serde_json::json!({"id": 1}),
        );
        broker.publish(Topic::new("other.topic"), serde_json::json!({"id": 2}));
        broker.publish(
            Topic::new("misp.event.updated"),
            serde_json::json!({"id": 3}),
        );

        let first = client.recv_timeout(Duration::from_secs(5)).expect("first");
        assert_eq!(first.payload["id"], 1);
        let second = client.recv_timeout(Duration::from_secs(5)).expect("second");
        assert_eq!(second.payload["id"], 3);
    }

    #[test]
    fn bounded_queue_sheds_oldest_and_accounts_drops() {
        let broker = Broker::new();
        let registry = cais_telemetry::Registry::new();
        let server = BusServer::bind_with(
            broker.clone(),
            "127.0.0.1:0",
            BusServerOptions {
                max_queued: Some(5),
                registry: Some(registry.clone()),
            },
        )
        .unwrap();
        let client = BusClient::connect(server.local_addr(), "#").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // A burst far past the bound, faster than one-frame-per-loop
        // delivery can drain it.
        for i in 0..200 {
            broker.publish(Topic::new("burst.topic"), serde_json::json!({ "i": i }));
        }
        let mut received = 0;
        while client.recv_timeout(Duration::from_millis(300)).is_some() {
            received += 1;
        }
        assert!(received < 200, "nothing was shed");
        assert!(server.dropped() > 0);
        assert_eq!(
            registry.snapshot().counters["bus_tcp_dropped_total"],
            server.dropped()
        );
    }

    #[test]
    fn client_timeout_when_idle() {
        let broker = Broker::new();
        let server = BusServer::bind(broker, "127.0.0.1:0").unwrap();
        let client = BusClient::connect(server.local_addr(), "#").unwrap();
        assert!(client.recv_timeout(Duration::from_millis(300)).is_none());
    }

    #[test]
    fn trace_context_survives_the_tcp_bridge() {
        let broker = Broker::new();
        let tracer = cais_telemetry::Tracer::new();
        broker.set_tracer(&tracer);
        let server = BusServer::bind(broker.clone(), "127.0.0.1:0").unwrap();
        let client = BusClient::connect(server.local_addr(), "#").unwrap();
        std::thread::sleep(Duration::from_millis(100));

        let parent = tracer.root("ingress", "feed_poll");
        let parent_ctx = parent.context();
        broker.publish_traced(
            Topic::new("misp.event.created"),
            serde_json::json!({"id": 1}),
            Some(parent_ctx),
        );
        drop(parent);

        let message = client
            .recv_timeout(Duration::from_secs(5))
            .expect("bridged");
        let trace = message.trace.expect("trace crossed the wire");
        assert_eq!(trace.trace_id, parent_ctx.trace_id);
        assert!(trace.sampled);
    }
}
