//! Proof that the multiplexed serving core answers **byte-identically**
//! to the in-process reference of each protocol it serves.
//!
//! Every server is `read_frame → respond → write_frame` on the core, so
//! each suite computes the reference response in process from the same
//! state (one `TaxiiServer`, one frozen `Registry` + `Tracer`, one
//! `Broker`), frames it with `write_frame`, and compares it with the raw
//! frame the core wrote — including the `TRACE_FLAG` tagged-frame path,
//! error responses, close-without-reply and the bus handshake/stream.
//! Any divergence in framing, ordering or serialization fails the diff,
//! not a lossy JSON comparison.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cais::bus::tcp::{BusServer, BusServerOptions};
use cais::bus::{Broker, Topic};
use cais::common::frame::{write_frame, write_frame_traced, TraceHeader, MAX_FRAME};
use cais::common::serve::{NoServeMetrics, ServeConfig};
use cais::taxii::{Collection, Request, Response, TaxiiServer};
use cais::telemetry::{
    chrome_trace_json, chrome_trace_jsonl, json_text, labeled, prometheus_text, Registry,
    TelemetryServer, Tracer,
};

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// Reads one frame off the wire, returning its raw bytes: the length
/// word exactly as sent, then the payload.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut raw = vec![0u8; 4];
    stream.read_exact(&mut raw).expect("length word");
    let len = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]);
    assert!(
        len <= MAX_FRAME,
        "length word {len:#010x} is not an untagged frame"
    );
    raw.resize(4 + len as usize, 0);
    stream.read_exact(&mut raw[4..]).expect("payload");
    raw
}

/// `payload` framed by `write_frame`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("frame");
    out
}

/// One request/response exchange on a fresh connection; returns the raw
/// response frame.
fn roundtrip(addr: SocketAddr, request: &[u8], header: Option<TraceHeader>) -> Vec<u8> {
    let mut stream = connect(addr);
    write_frame_traced(&mut stream, header, request).expect("write");
    read_raw_frame(&mut stream)
}

/// Sends `request` to the core and asserts the raw response frame is
/// `reference` framed by `write_frame`.
fn assert_serves(
    addr: SocketAddr,
    request: &[u8],
    header: Option<TraceHeader>,
    reference: &[u8],
    what: &str,
) {
    let actual = roundtrip(addr, request, header);
    assert_eq!(actual, framed(reference), "{what}: core response diverged");
}

/// Sends `request` and asserts the core closes the connection without
/// writing anything back.
fn assert_closes_without_reply(addr: SocketAddr, request: &[u8], what: &str) {
    let mut stream = connect(addr);
    write_frame(&mut stream, request).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{what}: must close without a reply");
}

/// The TAXII reference: the server's own `handle`, serialized — or, for
/// a frame that is not a request, the malformed-request error.
fn taxii_reference(server: &TaxiiServer, request: &[u8]) -> Vec<u8> {
    let response = match serde_json::from_slice::<Request>(request) {
        Ok(request) => server.handle(request),
        Err(err) => Response::Error {
            message: format!("malformed request: {err}"),
        },
    };
    serde_json::to_vec(&response).unwrap()
}

#[test]
fn taxii_responses_match_the_in_process_reference() {
    let mut server = TaxiiServer::new("equivalence fixture");
    let readable = server.add_collection(Collection::new("iocs", "indicators"));
    let readonly = server.add_collection(Collection::new("ro", "read only").read_only());
    let core = server
        .serve_on_core("127.0.0.1:0", ServeConfig::default(), NoServeMetrics)
        .expect("core");
    let addr = core.local_addr();

    // The object carries a STIX version (`id` + `modified`), so whichever
    // of the reference and the core applies it second stores nothing,
    // and both answer the same `Accepted { stored: 1 }`.
    let add = serde_json::to_vec(&serde_json::json!({
        "op": "add-objects",
        "collection": readable,
        "objects": [{
            "type": "indicator",
            "id": "indicator--equivalence",
            "modified": "2019-06-24T00:00:00Z",
            "value": "203.0.113.7",
        }],
    }))
    .unwrap();

    let get = |collection: serde_json::Value, match_expr: Option<&str>| {
        let mut request = serde_json::json!({
            "op": "get-objects", "collection": collection, "limit": 10,
        });
        if let Some(expr) = match_expr {
            request
                .as_object_mut()
                .unwrap()
                .insert("match".to_owned(), serde_json::json!(expr));
        }
        serde_json::to_vec(&request).unwrap()
    };
    let requests: Vec<(&str, Vec<u8>)> = vec![
        ("add_objects", add),
        (
            "discovery",
            serde_json::to_vec(&serde_json::json!({"op": "discovery"})).unwrap(),
        ),
        (
            "collections",
            serde_json::to_vec(&serde_json::json!({"op": "collections"})).unwrap(),
        ),
        ("get_objects", get(serde_json::json!(readable), None)),
        // Twice: the second answer comes from the page cache.
        ("get_objects cached", get(serde_json::json!(readable), None)),
        (
            "get_objects other collection",
            get(serde_json::json!(readonly), None),
        ),
        (
            "get_objects unknown collection",
            get(
                serde_json::json!("99999999-9999-4999-8999-999999999999"),
                None,
            ),
        ),
        (
            "get_objects match",
            get(serde_json::json!(readable), Some("type:indicator")),
        ),
        (
            "get_objects malformed match",
            get(serde_json::json!(readable), Some("type:((")),
        ),
        ("malformed request", b"{not json".to_vec()),
    ];
    for (what, request) in &requests {
        assert_serves(
            addr,
            request,
            None,
            &taxii_reference(&server, request),
            what,
        );
    }

    // A TRACE_FLAG-tagged request frame gets the same untagged response
    // bytes as an untagged one.
    let header = TraceHeader {
        trace_id: 0xabad_cafe_d00d_f00d,
        span_id: 0x0123_4567_89ab_cdef,
    };
    let traced = get(serde_json::json!(readable), None);
    assert_serves(
        addr,
        &traced,
        Some(header),
        &taxii_reference(&server, &traced),
        "traced get_objects",
    );
    core.shutdown();
}

#[test]
fn telemetry_scrapes_match_the_in_process_reference() {
    // A frozen registry + tracer: the server does not self-instrument,
    // so every scrape must serialize exactly this state.
    let registry = Registry::new();
    registry.counter("hits_total").add(5);
    registry.gauge("queue_depth").set(-3);
    registry
        .histogram(&labeled("stage_nanos", &[("stage", "dedup")]))
        .record(12_345);
    let tracer = Tracer::new();
    {
        let root = tracer.root("ingress", "feed_poll");
        let _child = tracer.child(root.context(), "pipeline", "ingest_round");
    }
    let core = TelemetryServer::bind_on_core(
        registry.clone(),
        Some(tracer.clone()),
        "127.0.0.1:0",
        ServeConfig::default(),
        NoServeMetrics,
    )
    .expect("core");
    let addr = core.local_addr();

    let snapshot = registry.snapshot();
    let events = tracer.snapshot();
    let references: [(&str, Vec<u8>); 5] = [
        ("prometheus", prometheus_text(&snapshot).into_bytes()),
        ("json", json_text(&snapshot).into_bytes()),
        ("trace", serde_json::to_vec(&events).unwrap()),
        ("trace_chrome", chrome_trace_json(&events).into_bytes()),
        ("trace_jsonl", chrome_trace_jsonl(&events).into_bytes()),
    ];
    for (command, reference) in &references {
        let request = serde_json::to_vec(command).unwrap();
        assert_serves(addr, &request, None, reference, command);
    }
    // Unknown commands answer a JSON error frame.
    let bogus = serde_json::to_vec("bogus").unwrap();
    let reference = serde_json::to_vec(&serde_json::json!({
        "error": "unknown command \"bogus\"",
        "commands": ["prometheus", "json", "trace", "trace_chrome", "trace_jsonl"],
    }))
    .unwrap();
    assert_serves(addr, &bogus, None, &reference, "unknown command");
    // A non-JSON command frame closes the connection without a reply.
    assert_closes_without_reply(addr, b"{not a json string", "bad command frame");
    core.shutdown();
}

/// Reads raw frames from a bus-client stream until `count`
/// non-keepalive frames arrive (keepalive cadence is an internal
/// liveness detail, not protocol content).
fn read_messages(stream: &mut TcpStream, count: usize) -> Vec<Vec<u8>> {
    let keepalive = framed(&[]);
    let mut frames = Vec::new();
    while frames.len() < count {
        let frame = read_raw_frame(stream);
        if frame != keepalive {
            frames.push(frame);
        }
    }
    frames
}

#[test]
fn bus_stream_matches_an_in_process_subscription() {
    let broker = Broker::new();
    let (_core_server, core) = BusServer::bind_on_core(
        broker.clone(),
        "127.0.0.1:0",
        BusServerOptions::default(),
        ServeConfig::default(),
        NoServeMetrics,
    )
    .expect("core");

    let mut client = connect(core.local_addr());
    write_frame(&mut client, &serde_json::to_vec("misp.#").unwrap()).expect("pattern");
    assert_eq!(
        read_raw_frame(&mut client),
        framed(&[]),
        "handshake ack must be an empty frame"
    );
    // The bridged subscription is registered (ack received), so it and
    // the in-process one see every publish from here on.
    let reference = broker.subscribe("misp.#");
    for i in 0..5 {
        broker.publish(
            Topic::new("misp.event.created"),
            serde_json::json!({"seq": i}),
        );
    }
    broker.publish(Topic::new("other.topic"), serde_json::json!("filtered out"));
    let expected: Vec<Vec<u8>> = (0..5)
        .map(|_| {
            let message = reference
                .recv_timeout(Duration::from_secs(10))
                .expect("in-process delivery");
            framed(&serde_json::to_vec(&message).unwrap())
        })
        .collect();
    assert!(reference.try_recv().is_none(), "pattern filter leaked");
    let actual = read_messages(&mut client, 5);
    assert_eq!(expected, actual, "bus stream diverged");
    core.shutdown();
}
