//! The TCP scrape endpoint.
//!
//! A [`TelemetryServer`] serves a [`Registry`] (and optionally a
//! [`Tracer`]) over the workspace's length-prefixed framing
//! ([`cais_common::frame`]) — the same wire format the bus bridge
//! speaks, so one client implementation covers both. The protocol is
//! strict request/response: the client sends one frame containing a
//! JSON string command and receives one response frame.
//!
//! | command        | response frame                                     |
//! |----------------|----------------------------------------------------|
//! | `prometheus`   | Prometheus text exposition (UTF-8), incl. p50/p95/p99 gauges |
//! | `json`         | the JSON [`Snapshot`](crate::Snapshot) plus a `percentiles` key |
//! | `trace`        | the buffered `TraceEvent`s as a JSON array         |
//! | `trace_chrome` | Chrome `trace_event` JSON (open in Perfetto)       |
//! | `trace_jsonl`  | Chrome trace events, one JSON object per line      |
//!
//! Trace scrapes are **non-destructive** ([`Tracer::snapshot`]): two
//! concurrent scrapers both see the full ring buffers instead of
//! stealing spans from each other.
//!
//! Unknown commands get a one-frame JSON error object and the
//! connection stays open, so a curious `nc` probe can't wedge the
//! endpoint.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cais_common::frame::{read_frame, write_frame, TraceHeader};
use cais_common::serve::{
    self, FrameService, NoServeMetrics, Outbox, ServeConfig, ServeHandle, ServeMetrics,
};

use crate::expose;
use crate::registry::Registry;
use crate::trace::Tracer;

/// A scrapeable telemetry endpoint over framed TCP.
///
/// # Examples
///
/// ```
/// use cais_telemetry::{Registry, TelemetryServer, scrape};
///
/// let registry = Registry::new();
/// registry.counter("up").inc();
/// let server = TelemetryServer::bind(registry, None, "127.0.0.1:0")?;
/// let text = scrape(server.local_addr(), "prometheus")?;
/// assert!(text.contains("up 1"));
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TelemetryServer {
    local_addr: SocketAddr,
}

impl TelemetryServer {
    /// Binds a listener and answers scrape requests for the lifetime
    /// of the process on the multiplexed core ([`cais_common::serve`]).
    /// The served registry is **not** self-instrumented with `serve_*`
    /// metrics by default — a scrape reports exactly what the registry
    /// holds; use [`TelemetryServer::bind_on_core`] to opt in.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind(registry: Registry, tracer: Option<Tracer>, addr: &str) -> io::Result<Self> {
        let handle = TelemetryServer::bind_on_core(
            registry,
            tracer,
            addr,
            ServeConfig::default(),
            NoServeMetrics,
        )?;
        let local_addr = handle.local_addr();
        // Dropping the handle leaves the core's threads detached, which
        // keeps this method's serve-forever contract.
        drop(handle);
        Ok(TelemetryServer { local_addr })
    }

    /// [`TelemetryServer::bind`] on an explicitly configured serving
    /// core, returning the [`ServeHandle`] for counters and graceful
    /// shutdown. Pair with
    /// [`crate::RegistryServeMetrics::new`]`(&registry, "telemetry")`
    /// to surface the endpoint's own `serve_*` family.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_on_core<M: ServeMetrics>(
        registry: Registry,
        tracer: Option<Tracer>,
        addr: &str,
        config: ServeConfig,
        metrics: M,
    ) -> io::Result<ServeHandle> {
        serve::serve(addr, config, ScrapeService { registry, tracer }, metrics)
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

/// One scrape exchange: the response frame for one command frame, or an
/// error when the frame is not a JSON string (the connection closes).
fn respond(frame: &[u8], registry: &Registry, tracer: Option<&Tracer>) -> io::Result<Vec<u8>> {
    let command: String =
        serde_json::from_slice(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(match command.as_str() {
        "prometheus" => expose::prometheus_text(&registry.snapshot()).into_bytes(),
        "json" => expose::json_text(&registry.snapshot()).into_bytes(),
        "trace" => {
            // snapshot(), not drain(): scraping must never consume
            // another scraper's spans.
            let events = tracer.map(|t| t.snapshot()).unwrap_or_default();
            serde_json::to_vec(&events)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        "trace_chrome" => {
            let events = tracer.map(|t| t.snapshot()).unwrap_or_default();
            crate::perfetto::chrome_trace_json(&events).into_bytes()
        }
        "trace_jsonl" => {
            let events = tracer.map(|t| t.snapshot()).unwrap_or_default();
            crate::perfetto::chrome_trace_jsonl(&events).into_bytes()
        }
        other => serde_json::to_vec(&serde_json::json!({
            "error": format!("unknown command {other:?}"),
            "commands": ["prometheus", "json", "trace", "trace_chrome", "trace_jsonl"],
        }))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
    })
}

/// The scrape protocol as a [`FrameService`]: strict request/response;
/// an unparseable command frame closes the connection without a reply,
/// an unknown command answers with a JSON error and the connection
/// survives.
struct ScrapeService {
    registry: Registry,
    tracer: Option<Tracer>,
}

impl FrameService for ScrapeService {
    type Conn = ();

    fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {}

    fn on_frame(
        &self,
        _conn: &mut Self::Conn,
        _header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    ) {
        match respond(&payload, &self.registry, self.tracer.as_ref()) {
            Ok(response) => out.push_owned(response),
            Err(_) => out.close(),
        }
    }
}

/// One-shot scrape: connects, sends `command`, returns the response
/// frame as UTF-8 text.
///
/// # Errors
///
/// Returns connection or framing I/O errors, or `InvalidData` when the
/// response is not UTF-8.
pub fn scrape(addr: SocketAddr, command: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let frame =
        serde_json::to_vec(command).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    write_frame(&mut stream, &frame)?;
    let response = read_frame(&mut stream)?;
    String::from_utf8(response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Snapshot;
    use crate::trace::TraceEvent;

    #[test]
    fn scrape_prometheus_and_json() {
        let registry = Registry::new();
        registry.counter("hits_total").add(5);
        registry.histogram("lat").record(100);
        let server = TelemetryServer::bind(registry.clone(), None, "127.0.0.1:0").unwrap();

        let text = scrape(server.local_addr(), "prometheus").unwrap();
        assert!(text.contains("hits_total 5"));
        assert!(text.contains("lat_count 1"));

        let json = scrape(server.local_addr(), "json").unwrap();
        let snapshot: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot, registry.snapshot());
    }

    #[test]
    fn scrape_trace_buffer() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        tracer.event("boot", &[("phase", "test")]);
        let server = TelemetryServer::bind(registry, Some(tracer.clone()), "127.0.0.1:0").unwrap();
        let json = scrape(server.local_addr(), "trace").unwrap();
        let events: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "boot");
    }

    #[test]
    fn trace_scrapes_are_non_destructive() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        drop(tracer.root("pipeline", "round"));
        let server = TelemetryServer::bind(registry, Some(tracer.clone()), "127.0.0.1:0").unwrap();
        // Two scrapers in a row both see the span.
        for _ in 0..2 {
            let json = scrape(server.local_addr(), "trace").unwrap();
            let events: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
            assert_eq!(events.len(), 1, "a scrape consumed the buffer");
        }
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn scrape_chrome_trace_formats() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        {
            let root = tracer.root("ingress", "feed_poll");
            let _child = tracer.child(root.context(), "pipeline", "ingest_round");
        }
        let server = TelemetryServer::bind(registry, Some(tracer), "127.0.0.1:0").unwrap();
        let chrome = scrape(server.local_addr(), "trace_chrome").unwrap();
        let doc: serde_json::Value = serde_json::from_str(&chrome).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["ph"] == "X"));
        let jsonl = scrape(server.local_addr(), "trace_jsonl").unwrap();
        assert!(jsonl.lines().count() >= 2);
        for line in jsonl.lines() {
            serde_json::from_str::<serde_json::Value>(line).unwrap();
        }
    }

    #[test]
    fn unknown_command_reports_error_and_connection_survives() {
        let registry = Registry::new();
        registry.counter("up").inc();
        let server = TelemetryServer::bind(registry, None, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, &serde_json::to_vec("bogus").unwrap()).unwrap();
        let response = read_frame(&mut stream).unwrap();
        let value: serde_json::Value = serde_json::from_slice(&response).unwrap();
        assert!(value["error"].as_str().unwrap().contains("bogus"));
        // Same connection still answers real commands.
        write_frame(&mut stream, &serde_json::to_vec("prometheus").unwrap()).unwrap();
        let response = read_frame(&mut stream).unwrap();
        assert!(String::from_utf8(response).unwrap().contains("up 1"));
    }
}
