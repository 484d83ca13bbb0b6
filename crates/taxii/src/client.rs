//! The TAXII client.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cais_bus::tcp::read_frame;
use cais_common::frame::write_frame_traced;
use cais_common::{Timestamp, Uuid};
use cais_telemetry::Tracer;
use parking_lot::{Mutex, RwLock};

use crate::collection::{Collection, Envelope};
use crate::protocol::{Request, Response};

/// Default socket read/write timeout for [`TaxiiClient::connect`]. A
/// hung or half-dead server fails the pending call with a timeout error
/// instead of blocking the caller forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A synchronous client for [`crate::TaxiiServer`].
pub struct TaxiiClient {
    stream: Mutex<TcpStream>,
    tracer: RwLock<Option<Tracer>>,
}

impl TaxiiClient {
    /// Connects to a server with [`DEFAULT_IO_TIMEOUT`] on socket reads
    /// and writes.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with_timeout(addr, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects with an explicit socket read/write timeout (`None`
    /// blocks indefinitely, the pre-timeout behaviour).
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(TaxiiClient {
            stream: Mutex::new(stream),
            tracer: RwLock::new(None),
        })
    }

    /// Attaches a causal tracer: each request roots a `taxii_client`
    /// span and tags the request frame with its trace header, so a
    /// traced server records its handling as a child of this client's
    /// span. Only enable against servers that understand tagged frames
    /// — legacy readers reject them.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = Some(tracer.clone());
    }

    fn roundtrip(&self, request: &Request) -> io::Result<Response> {
        let tracer = self.tracer.read().clone();
        let mut span = tracer
            .as_ref()
            .map(|t| t.root("taxii_client", "taxii_request"));
        if let Some(span) = span.as_mut() {
            span.field("verb", request.verb());
        }
        let header = span.as_ref().and_then(|s| s.context().header());
        let mut stream = self.stream.lock();
        let bytes = serde_json::to_vec(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        write_frame_traced(&mut *stream, header, &bytes)?;
        let frame = read_frame(&mut *stream)?;
        serde_json::from_slice(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn expect_ok(response: Response) -> io::Result<Response> {
        if let Response::Error { message } = response {
            Err(io::Error::other(message))
        } else {
            Ok(response)
        }
    }

    /// Fetches server discovery metadata, returning the title.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors.
    pub fn discovery(&self) -> io::Result<String> {
        match Self::expect_ok(self.roundtrip(&Request::Discovery)?)? {
            Response::Discovery { title, .. } => Ok(title),
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }

    /// Lists the server's collections.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors.
    pub fn collections(&self) -> io::Result<Vec<Collection>> {
        match Self::expect_ok(self.roundtrip(&Request::Collections)?)? {
            Response::Collections { collections } => Ok(collections),
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches one page (up to 100 objects) from a collection.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors.
    pub fn objects(
        &self,
        collection: &Uuid,
        added_after: Option<Timestamp>,
    ) -> io::Result<Envelope> {
        let request = Request::GetObjects {
            collection: *collection,
            added_after,
            object_type: None,
            match_expr: None,
            limit: 100,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Response::Objects { envelope } => Ok(envelope),
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches one page of objects of a single STIX type.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors.
    pub fn objects_of_type(
        &self,
        collection: &Uuid,
        object_type: &str,
        added_after: Option<Timestamp>,
    ) -> io::Result<Envelope> {
        let request = Request::GetObjects {
            collection: *collection,
            added_after,
            object_type: Some(object_type.to_owned()),
            match_expr: None,
            limit: 100,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Response::Objects { envelope } => Ok(envelope),
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches one page of objects matching a `cais-search` query
    /// expression (e.g. `type:indicator AND value:evil`), evaluated
    /// server-side. Malformed expressions surface as server errors.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors.
    pub fn objects_matching(
        &self,
        collection: &Uuid,
        match_expr: &str,
        added_after: Option<Timestamp>,
    ) -> io::Result<Envelope> {
        let request = Request::GetObjects {
            collection: *collection,
            added_after,
            object_type: None,
            match_expr: Some(match_expr.to_owned()),
            limit: 100,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Response::Objects { envelope } => Ok(envelope),
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches *all* objects, following pagination.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors.
    pub fn all_objects(&self, collection: &Uuid) -> io::Result<Vec<serde_json::Value>> {
        Envelope::walk(|added_after| self.objects(collection, added_after))
    }

    /// Pushes objects to a collection, returning how many the server
    /// accepted.
    ///
    /// # Errors
    ///
    /// Returns I/O and server errors (including write-protection).
    pub fn add_objects(
        &self,
        collection: &Uuid,
        objects: Vec<serde_json::Value>,
    ) -> io::Result<usize> {
        let request = Request::AddObjects {
            collection: *collection,
            objects,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Response::Accepted { stored } => Ok(stored),
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }
}

impl std::fmt::Debug for TaxiiClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaxiiClient")
            .field("peer", &self.stream.lock().peer_addr().ok())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::server::TaxiiServer;

    fn live_server() -> (TaxiiServer, SocketAddr, Uuid) {
        let mut server = TaxiiServer::new("live");
        let id = server.add_collection(Collection::new("iocs", "d"));
        let addr = server.serve("127.0.0.1:0").unwrap();
        (server, addr, id)
    }

    #[test]
    fn full_client_server_exchange() {
        let (_server, addr, id) = live_server();
        let client = TaxiiClient::connect(addr).unwrap();
        assert_eq!(client.discovery().unwrap(), "live");
        let collections = client.collections().unwrap();
        assert_eq!(collections.len(), 1);
        assert_eq!(collections[0].id, id);

        let stored = client
            .add_objects(&id, vec![serde_json::json!({"type": "indicator", "n": 1})])
            .unwrap();
        assert_eq!(stored, 1);
        let envelope = client.objects(&id, None).unwrap();
        assert_eq!(envelope.objects.len(), 1);
    }

    #[test]
    fn pagination_via_all_objects() {
        let (_server, addr, id) = live_server();
        let client = TaxiiClient::connect(addr).unwrap();
        // 250 objects forces three pages at the client's limit of 100.
        for batch in 0..5 {
            let objects: Vec<serde_json::Value> = (0..50)
                .map(|i| serde_json::json!({"b": batch, "i": i}))
                .collect();
            client.add_objects(&id, objects).unwrap();
            // Distinct timestamps per batch keep pagination watermarks sane.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let all = client.all_objects(&id).unwrap();
        assert_eq!(all.len(), 250);
    }

    #[test]
    fn silent_server_times_out_instead_of_hanging() {
        // A listener that accepts and then never replies: the pending
        // call must fail with a timeout, not block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept());
        let client =
            TaxiiClient::connect_with_timeout(addr, Some(std::time::Duration::from_millis(100)))
                .unwrap();
        let error = client.discovery().expect_err("silent server must time out");
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
    fn server_error_surfaces_as_io_error() {
        let (_server, addr, _) = live_server();
        let client = TaxiiClient::connect(addr).unwrap();
        let missing = Uuid::new_v4();
        assert!(client.objects(&missing, None).is_err());
    }

    #[test]
    fn tagged_request_frames_carry_the_client_span() {
        let (server, addr, id) = live_server();
        let tracer = cais_telemetry::Tracer::new();
        server.set_tracer(&tracer);
        let client = TaxiiClient::connect(addr).unwrap();
        client.set_tracer(&tracer);

        assert_eq!(client.discovery().unwrap(), "live");
        client
            .add_objects(&id, vec![serde_json::json!({"type": "indicator"})])
            .unwrap();

        let client_spans = tracer.snapshot_subsystem("taxii_client");
        let server_spans = tracer.snapshot_subsystem("taxii");
        assert_eq!(client_spans.len(), 2);
        assert_eq!(server_spans.len(), 2);
        for server_span in &server_spans {
            let parent = client_spans
                .iter()
                .find(|c| c.span_id == server_span.parent_id)
                .expect("server span hangs off a client span");
            assert_eq!(parent.trace_id, server_span.trace_id);
        }
    }

    #[test]
    fn untagged_peer_requests_root_a_fresh_trace() {
        // Mixed-version federation: the server traces, the client
        // predates tracing and sends plain frames.
        let (server, addr, id) = live_server();
        let tracer = cais_telemetry::Tracer::new();
        server.set_tracer(&tracer);
        let client = TaxiiClient::connect(addr).unwrap();

        client
            .add_objects(&id, vec![serde_json::json!({"type": "indicator"})])
            .unwrap();

        let server_spans = tracer.snapshot_subsystem("taxii");
        assert_eq!(server_spans.len(), 1);
        assert_eq!(server_spans[0].parent_id, 0, "no wire header => fresh root");
        assert!(tracer.snapshot_subsystem("taxii_client").is_empty());
    }
}

#[cfg(test)]
mod type_filter_tests {
    use super::*;
    use crate::collection::Collection;
    use crate::server::TaxiiServer;

    #[test]
    fn type_filter_narrows_results() {
        let mut server = TaxiiServer::new("filter");
        let id = server.add_collection(Collection::new("stix", "d"));
        let addr = server.serve("127.0.0.1:0").unwrap();
        let client = TaxiiClient::connect(addr).unwrap();
        client
            .add_objects(
                &id,
                vec![
                    serde_json::json!({"type": "indicator", "n": 1}),
                    serde_json::json!({"type": "malware", "n": 2}),
                    serde_json::json!({"type": "indicator", "n": 3}),
                ],
            )
            .unwrap();
        let indicators = client.objects_of_type(&id, "indicator", None).unwrap();
        assert_eq!(indicators.objects.len(), 2);
        let tools = client.objects_of_type(&id, "tool", None).unwrap();
        assert!(tools.objects.is_empty());
        // Unfiltered still returns everything.
        assert_eq!(client.objects(&id, None).unwrap().objects.len(), 3);
    }

    #[test]
    fn match_expressions_filter_server_side() {
        let mut server = TaxiiServer::new("match");
        let id = server.add_collection(Collection::new("stix", "d"));
        let addr = server.serve("127.0.0.1:0").unwrap();
        let client = TaxiiClient::connect(addr).unwrap();
        client
            .add_objects(
                &id,
                vec![
                    serde_json::json!({"type": "indicator", "name": "evil.example",
                                       "labels": ["tlp:amber"]}),
                    serde_json::json!({"type": "indicator", "name": "benign.example"}),
                    serde_json::json!({"type": "malware", "name": "evil.example"}),
                ],
            )
            .unwrap();
        let hits = client
            .objects_matching(&id, "type:indicator AND value:evil", None)
            .unwrap();
        assert_eq!(hits.objects.len(), 1);
        assert_eq!(hits.objects[0]["labels"][0], "tlp:amber");
        let none = client.objects_matching(&id, "tag:tlp:red", None).unwrap();
        assert!(none.objects.is_empty());
        // Malformed expressions surface as server errors, not hangs.
        assert!(client.objects_matching(&id, "(((", None).is_err());
    }
}
