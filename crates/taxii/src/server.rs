//! The TAXII server: collection storage served over framed TCP on the
//! multiplexed core ([`cais_common::serve`]).
//!
//! Pull-heavy federations re-request the same pages over and over; the
//! server therefore keeps a bounded byte cache of serialized
//! `GetObjects` responses, keyed by the collection's length (its log is
//! append-only, so the length is its version), so repeated pulls of an
//! unchanged collection replay stored bytes instead of re-filtering and
//! re-serializing the page (see DESIGN.md §12).
//!
//! Producers re-push whole exports, so most of a push is usually
//! versions the collection already holds. `AddObjects` stores a STIX
//! object only when its exact `(id, modified)` pair is new to the
//! collection; a re-sent copy changes nothing, not even the length the
//! page cache is keyed on.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cais_common::frame::TraceHeader;
use cais_common::resilience::{FaultKind, FaultPlan};
use cais_common::serve::{
    self, FrameService, NoServeMetrics, Outbox, ServeConfig, ServeHandle, ServeMetrics,
};
use cais_common::{Timestamp, Uuid};
use cais_telemetry::{Counter, Registry, TraceContext, Tracer};
use parking_lot::{Mutex, RwLock};

use crate::collection::{Collection, Envelope};
use crate::protocol::{Request, Response};

/// Maximum page size the server will return.
const MAX_PAGE: usize = 1_000;

/// Maximum number of cached page responses; the cache is cleared
/// wholesale when full. Writes evict their collection's pages, so every
/// entry is a page of a collection's current length.
const PAGE_CACHE_CAP: usize = 512;

#[derive(Debug, Default)]
struct State {
    slots: Vec<Slot>,
}

impl State {
    /// The index of collection `id`'s slot, or the error response naming
    /// the missing collection.
    fn position(&self, id: Uuid) -> Result<usize, Response> {
        self.slots
            .iter()
            .position(|s| s.collection.id == id)
            .ok_or_else(|| Response::Error {
                message: format!("no such collection {id}"),
            })
    }

    /// The one `GetObjects` body: parses `match`, finds the collection,
    /// checks that it is readable and clamps `limit`. Returns the page's
    /// cache key and the page build, to run under the same read guard.
    fn page_request(
        &self,
        collection: Uuid,
        added_after: Option<Timestamp>,
        object_type: Option<String>,
        match_expr: Option<String>,
        limit: usize,
    ) -> Result<(PageKey, impl FnOnce() -> Envelope + '_), Response> {
        let query = match_expr
            .as_deref()
            .map(cais_search::Query::parse)
            .transpose()
            .map_err(|err| Response::Error {
                message: format!("malformed match expression: {err}"),
            })?;
        let found = &self.slots[self.position(collection)?].collection;
        if !found.can_read {
            return Err(Response::Error {
                message: "collection is not readable".into(),
            });
        }
        let limit = limit.clamp(1, MAX_PAGE);
        let key = PageKey {
            collection,
            len: found.objects().len(),
            added_after,
            object_type: object_type.clone(),
            match_expr,
            limit,
        };
        let page =
            move || found.page_matching(added_after, limit, object_type.as_deref(), query.as_ref());
        Ok((key, page))
    }
}

/// One collection plus the server's bookkeeping for it.
#[derive(Debug)]
struct Slot {
    collection: Collection,
    /// The `(id, modified)` pair of every stored object that has both.
    held: HashSet<(String, String)>,
}

impl Slot {
    fn new(collection: Collection) -> Slot {
        let held = collection
            .objects()
            .iter()
            .filter_map(|o| version_key(&o.object))
            .collect();
        Slot { collection, held }
    }

    /// Appends the objects whose `(id, modified)` version is not held
    /// yet (objects lacking either property always), in order, and
    /// returns how many were stored. Of two equal versions in one
    /// batch, the first is stored.
    fn add_new_versions(&mut self, objects: Vec<serde_json::Value>, added_at: Timestamp) -> usize {
        let held = &mut self.held;
        let fresh: Vec<serde_json::Value> = objects
            .into_iter()
            .filter(|object| version_key(object).is_none_or(|key| held.insert(key)))
            .collect();
        let stored = fresh.len();
        self.collection.add_objects(fresh, added_at);
        stored
    }
}

/// The STIX version identity of an object: its `id` and `modified`
/// properties, when both are strings.
fn version_key(object: &serde_json::Value) -> Option<(String, String)> {
    let id = object.get("id")?.as_str()?;
    let modified = object.get("modified")?.as_str()?;
    Some((id.to_owned(), modified.to_owned()))
}

/// The identity of one cacheable page response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PageKey {
    collection: Uuid,
    /// The collection's length. Its log is append-only, so a page of
    /// a shorter collection can never be served for a longer one.
    len: usize,
    added_after: Option<Timestamp>,
    object_type: Option<String>,
    /// The raw `match` expression string. Keyed on the text, not the
    /// parsed query: distinct spellings of the same query cache
    /// separately, which is harmless, while equal strings always
    /// filter identically.
    match_expr: Option<String>,
    limit: usize,
}

#[derive(Clone)]
struct PageMetrics {
    hits: Counter,
    misses: Counter,
}

#[derive(Default)]
struct PageCache {
    entries: Mutex<HashMap<PageKey, Arc<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: RwLock<Option<PageMetrics>>,
}

/// A TAXII-like server over framed TCP.
#[derive(Clone)]
pub struct TaxiiServer {
    title: String,
    state: Arc<RwLock<State>>,
    cache: Arc<PageCache>,
    tracer: Arc<RwLock<Option<Tracer>>>,
}

impl std::fmt::Debug for TaxiiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaxiiServer")
            .field("title", &self.title)
            .field("collections", &self.state.read().slots.len())
            .finish()
    }
}

impl TaxiiServer {
    /// Creates a server with no collections.
    pub fn new(title: impl Into<String>) -> Self {
        TaxiiServer {
            title: title.into(),
            state: Arc::new(RwLock::new(State::default())),
            cache: Arc::new(PageCache::default()),
            tracer: Arc::new(RwLock::new(None)),
        }
    }

    /// Attaches a causal tracer: every request records a `taxii` span.
    /// `GetObjects` pages chain onto the trace linked to the first
    /// served object's event UUID (set by the store/share seam), so a
    /// pull of a freshly ingested event joins its ingress span tree;
    /// requests arriving with a frame trace header become children of
    /// the sender's span instead.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = Some(tracer.clone());
    }

    fn trace_handle(&self) -> Option<Tracer> {
        self.tracer.read().clone()
    }

    /// Registers a collection, returning its id.
    pub fn add_collection(&mut self, collection: Collection) -> Uuid {
        let id = collection.id;
        self.state.write().slots.push(Slot::new(collection));
        id
    }

    /// Publishes `taxii_page_cache_{hits,misses}_total` counters on the
    /// registry, pre-loaded with whatever the cache has already served.
    pub fn instrument(&self, registry: &Registry) {
        let metrics = PageMetrics {
            hits: registry.counter("taxii_page_cache_hits_total"),
            misses: registry.counter("taxii_page_cache_misses_total"),
        };
        metrics.hits.add(self.cache.hits.load(Ordering::Relaxed));
        metrics
            .misses
            .add(self.cache.misses.load(Ordering::Relaxed));
        *self.cache.metrics.write() = Some(metrics);
    }

    /// Page-cache accounting so far, as `(hits, misses)`.
    pub fn page_cache_stats(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.misses.load(Ordering::Relaxed),
        )
    }

    /// Handles one request against the in-memory state. This is the
    /// whole service logic; the serving core just frames it.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Discovery => Response::Discovery {
                title: self.title.clone(),
                api_version: "cais-taxii/1".into(),
            },
            Request::Collections => {
                let collections = self
                    .state
                    .read()
                    .slots
                    .iter()
                    .map(|s| s.collection.metadata())
                    .collect();
                Response::Collections { collections }
            }
            Request::GetObjects {
                collection,
                added_after,
                object_type,
                match_expr,
                limit,
            } => {
                let state = self.state.read();
                let (_, page) = match state.page_request(
                    collection,
                    added_after,
                    object_type,
                    match_expr,
                    limit,
                ) {
                    Ok(request) => request,
                    Err(response) => return response,
                };
                Response::Objects { envelope: page() }
            }
            Request::AddObjects {
                collection,
                objects,
            } => {
                let mut state = self.state.write();
                let slot = match state.position(collection) {
                    Ok(index) => &mut state.slots[index],
                    Err(response) => return response,
                };
                if !slot.collection.can_write {
                    return Response::Error {
                        message: "collection is not writable".into(),
                    };
                }
                let accepted = objects.len();
                if slot.add_new_versions(objects, Timestamp::now()) > 0 {
                    // Pages keyed by shorter lengths can never be served
                    // again. Evicting them under the write guard means no
                    // reader can observe the new length with them cached.
                    self.cache
                        .entries
                        .lock()
                        .retain(|key, _| key.collection != collection);
                }
                Response::Accepted { stored: accepted }
            }
        }
    }

    /// The serialized response for one `GetObjects` request, served
    /// from the page cache when the collection's length still matches.
    /// Error responses (unknown collection, unreadable collection,
    /// malformed `match`) are never cached.
    fn get_objects_bytes(
        &self,
        collection: Uuid,
        added_after: Option<Timestamp>,
        object_type: Option<String>,
        match_expr: Option<String>,
        limit: usize,
        wire: Option<TraceContext>,
    ) -> io::Result<Arc<Vec<u8>>> {
        let tracer = self.trace_handle();
        // Length lookup, cache probe, and (on a miss) envelope build
        // all happen under one read guard so a concurrent AddObjects
        // cannot slip a newer page under an older length key.
        let (key, parent, response) = {
            let state = self.state.read();
            let (key, page) =
                match state.page_request(collection, added_after, object_type, match_expr, limit) {
                    Ok(request) => request,
                    Err(response) => return encode(&response).map(Arc::new),
                };
            if let Some(bytes) = self.cache.entries.lock().get(&key) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = self.cache.metrics.read().as_ref() {
                    metrics.hits.inc();
                }
                if let Some(t) = tracer.as_ref() {
                    let mut span = t.child_of(wire, "taxii", "taxii_get_objects");
                    span.field("cache", "hit");
                }
                return Ok(bytes.clone());
            }
            let envelope = page();
            // Chain onto the ingress trace of the first served event
            // (linked under its UUID by the store/share seam); fall
            // back to the request's wire context.
            let parent = tracer
                .as_ref()
                .and_then(|t| {
                    envelope.objects.iter().find_map(|object| {
                        object
                            .get("uuid")
                            .and_then(|v| v.as_str())
                            .and_then(|uuid| t.linked(uuid))
                    })
                })
                .or(wire);
            (key, parent, Response::Objects { envelope })
        };
        let mut span = tracer
            .as_ref()
            .map(|t| t.child_of(parent, "taxii", "taxii_get_objects"));
        if let Some(span) = span.as_mut() {
            span.field("cache", "miss");
        }
        let bytes = Arc::new(encode(&response)?);
        if let Some(span) = span.as_mut() {
            span.field("bytes", bytes.len());
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = self.cache.metrics.read().as_ref() {
            metrics.misses.inc();
        }
        // Cache the page only while its length is still current: a write
        // that landed during the encode has already evicted this
        // collection's pages, and this one would be dead on arrival.
        let state = self.state.read();
        if state
            .position(collection)
            .is_ok_and(|index| state.slots[index].collection.objects().len() == key.len)
        {
            let mut entries = self.cache.entries.lock();
            if entries.len() >= PAGE_CACHE_CAP {
                entries.clear();
            }
            entries.insert(key, bytes.clone());
        }
        Ok(bytes)
    }

    /// Parses one request frame and produces the serialized response,
    /// routing `GetObjects` through the page cache. `wire` is the trace
    /// context carried in the request's frame header, if any.
    fn response_bytes(&self, frame: &[u8], wire: Option<TraceContext>) -> io::Result<Arc<Vec<u8>>> {
        match serde_json::from_slice::<Request>(frame) {
            Ok(Request::GetObjects {
                collection,
                added_after,
                object_type,
                match_expr,
                limit,
            }) => self.get_objects_bytes(
                collection,
                added_after,
                object_type,
                match_expr,
                limit,
                wire,
            ),
            Ok(request) => {
                let mut span = self
                    .trace_handle()
                    .map(|t| t.child_of(wire, "taxii", "taxii_request"));
                if let Some(span) = span.as_mut() {
                    span.field("verb", request.verb());
                }
                encode(&self.handle(request)).map(Arc::new)
            }
            Err(err) => encode(&Response::Error {
                message: format!("malformed request: {err}"),
            })
            .map(Arc::new),
        }
    }

    /// Binds a listener and serves requests on the multiplexed core
    /// ([`cais_common::serve`]) for the life of the process, returning
    /// the bound address. Use [`TaxiiServer::serve_on_core`] for
    /// explicit core configuration, `serve_*` metrics and graceful
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve(&self, addr: &str) -> io::Result<SocketAddr> {
        let handle = self.serve_on_core(addr, ServeConfig::default(), NoServeMetrics)?;
        let local_addr = handle.local_addr();
        // Dropping the handle leaves the core's threads detached, which
        // keeps this method's serve-forever contract.
        drop(handle);
        Ok(local_addr)
    }

    /// [`TaxiiServer::serve`] on an explicitly configured serving core,
    /// returning the [`ServeHandle`] for counters and graceful
    /// shutdown. Pair with
    /// `cais_telemetry::RegistryServeMetrics::new(&registry, "taxii")`
    /// to surface the `serve_*` metric family.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve_on_core<M: ServeMetrics>(
        &self,
        addr: &str,
        config: ServeConfig,
        metrics: M,
    ) -> io::Result<ServeHandle> {
        serve::serve(
            addr,
            config,
            TaxiiService {
                server: self.clone(),
            },
            metrics,
        )
    }

    /// Like [`TaxiiServer::serve`], but every request frame consults
    /// `plan` at `site` first — the chaos harness:
    ///
    /// - [`FaultKind::Error`] — the connection is dropped without a
    ///   response (the frame is lost; the request is *not* applied).
    /// - [`FaultKind::AckLost`] — the request **is** applied, then the
    ///   connection drops before the response: the client observes an
    ///   error even though the effect landed. Exercises idempotent
    ///   re-delivery.
    /// - [`FaultKind::Garbage`] — an unparseable response frame.
    /// - [`FaultKind::Truncate`] — the response frame carries only the
    ///   first half of the serialized response.
    /// - [`FaultKind::Replay`] — the previous response on this
    ///   connection is resent instead of the current one.
    /// - [`FaultKind::Delay`] — virtual; the response is served
    ///   normally (the server has no injected clock).
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve_chaos(
        &self,
        addr: &str,
        plan: FaultPlan,
        site: impl Into<String>,
    ) -> io::Result<SocketAddr> {
        let service = ChaosService {
            server: self.clone(),
            plan,
            site: site.into(),
        };
        let handle = serve::serve(addr, ServeConfig::default(), service, NoServeMetrics)?;
        let local_addr = handle.local_addr();
        // Detached, like `serve`: the chaos server runs for the life of
        // the process.
        drop(handle);
        Ok(local_addr)
    }
}

/// The TAXII request/response protocol as a [`FrameService`]: each
/// inbound frame is one request, each reply is the (possibly
/// page-cached) serialized response, written untagged — clients read
/// replies with the untagged `read_frame`.
struct TaxiiService {
    server: TaxiiServer,
}

impl FrameService for TaxiiService {
    type Conn = ();

    fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {}

    fn on_frame(
        &self,
        _conn: &mut Self::Conn,
        header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    ) {
        let wire = header.map(TraceContext::from_header);
        match self.server.response_bytes(&payload, wire) {
            // Cached pages are an `Arc` already — queue them zero-copy.
            Ok(bytes) => out.push_shared(bytes),
            Err(_) => out.close(),
        }
    }
}

/// [`TaxiiService`] with a fault plan consulted before every request
/// frame; see [`TaxiiServer::serve_chaos`] for what each fault does.
struct ChaosService {
    server: TaxiiServer,
    plan: FaultPlan,
    site: String,
}

/// Garbage injected in place of a response frame.
const GARBAGE_FRAME: &[u8] = b"\x01\x02%%% injected garbage %%%\x03";

impl FrameService for ChaosService {
    /// The previous response on this connection, for `Replay`.
    type Conn = Option<Arc<Vec<u8>>>;

    fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {
        None
    }

    fn on_frame(
        &self,
        previous: &mut Self::Conn,
        header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    ) {
        let wire = header.map(TraceContext::from_header);
        match self.plan.next(&self.site) {
            Some(FaultKind::Error) => out.close(),
            Some(FaultKind::AckLost) => {
                if let Ok(request) = serde_json::from_slice::<Request>(&payload) {
                    let _ = self.server.handle(request);
                }
                out.close();
            }
            Some(FaultKind::Garbage) => out.push_owned(GARBAGE_FRAME.to_vec()),
            Some(FaultKind::Truncate) => match self.server.response_bytes(&payload, wire) {
                Ok(bytes) => out.push_owned(bytes[..bytes.len() / 2].to_vec()),
                Err(_) => out.close(),
            },
            Some(FaultKind::Replay) if previous.is_some() => {
                out.push_shared(previous.clone().expect("checked above"));
            }
            Some(FaultKind::Replay) | Some(FaultKind::Delay(_)) | None => {
                match self.server.response_bytes(&payload, wire) {
                    Ok(bytes) => {
                        *previous = Some(Arc::clone(&bytes));
                        out.push_shared(bytes);
                    }
                    Err(_) => out.close(),
                }
            }
        }
    }
}

fn encode(response: &Response) -> io::Result<Vec<u8>> {
    serde_json::to_vec(response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_collection() -> (TaxiiServer, Uuid) {
        let mut server = TaxiiServer::new("test server");
        let id = server.add_collection(Collection::new("iocs", "indicators"));
        (server, id)
    }

    #[test]
    fn discovery_and_collections() {
        let (server, _) = server_with_collection();
        match server.handle(Request::Discovery) {
            Response::Discovery { title, .. } => assert_eq!(title, "test server"),
            other => panic!("unexpected {other:?}"),
        }
        match server.handle(Request::Collections) {
            Response::Collections { collections } => {
                assert_eq!(collections.len(), 1);
                assert!(collections[0].objects().is_empty()); // omitted
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn add_then_get() {
        let (server, id) = server_with_collection();
        let response = server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({"type": "vulnerability"})],
        });
        assert_eq!(response, Response::Accepted { stored: 1 });
        match server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 10,
        }) {
            Response::Objects { envelope } => assert_eq!(envelope.objects.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_collection_errors() {
        let (server, _) = server_with_collection();
        let response = server.handle(Request::GetObjects {
            collection: Uuid::new_v4(),
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 10,
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn write_protection() {
        let mut server = TaxiiServer::new("s");
        let id = server.add_collection(Collection::new("ro", "read only").read_only());
        let response = server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({})],
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn limit_is_clamped() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..5).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        match server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 0, // clamped up to 1
        }) {
            Response::Objects { envelope } => assert_eq!(envelope.objects.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn page_cache_replays_bytes_until_the_collection_changes() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..3).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        let first = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let second = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(server.page_cache_stats(), (1, 1));

        // A write lengthens the collection: fresh bytes.
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({ "i": 99 })],
        });
        let third = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(server.page_cache_stats(), (1, 2));
    }

    #[test]
    fn cached_bytes_match_direct_handling() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..4).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        let direct = serde_json::to_vec(&server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 2,
        }))
        .unwrap();
        // Miss, then hit: both must equal the uncached serialization.
        for _ in 0..2 {
            let cached = server
                .get_objects_bytes(id, None, None, None, 2, None)
                .unwrap();
            assert_eq!(*cached, direct);
        }
    }

    #[test]
    fn error_responses_are_not_cached() {
        let (server, _) = server_with_collection();
        let missing = Uuid::new_v4();
        server
            .get_objects_bytes(missing, None, None, None, 10, None)
            .unwrap();
        server
            .get_objects_bytes(missing, None, None, None, 10, None)
            .unwrap();
        assert_eq!(server.page_cache_stats(), (0, 0));
    }

    #[test]
    fn match_filtered_pages_are_byte_identical_to_direct_filtering() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![
                serde_json::json!({"type": "indicator", "name": "evil.example"}),
                serde_json::json!({"type": "indicator", "name": "benign.example"}),
                serde_json::json!({"type": "malware", "name": "evil.example"}),
            ],
        });
        let expr = "type:indicator AND value:evil";
        // The unindexed reference: filter by hand with the same oracle.
        let query = cais_search::Query::parse(expr).unwrap();
        let reference = {
            let state = server.state.read();
            let found = &state.slots[state.position(id).unwrap()].collection;
            let objects: Vec<serde_json::Value> = found
                .objects()
                .iter()
                .filter(|o| cais_search::stix_matches(&query, &o.object))
                .map(|o| o.object.clone())
                .collect();
            assert_eq!(objects.len(), 1);
            serde_json::to_vec(&Response::Objects {
                envelope: Envelope {
                    objects,
                    more: false,
                    next: None,
                },
            })
            .unwrap()
        };
        // Cache miss, then hit: byte-identical to the reference both
        // times.
        for _ in 0..2 {
            let served = server
                .get_objects_bytes(id, None, None, Some(expr.to_owned()), 10, None)
                .unwrap();
            assert_eq!(*served, reference);
        }
        assert_eq!(server.page_cache_stats(), (1, 1));
    }

    #[test]
    fn malformed_match_expressions_error_uncached() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({"type": "indicator"})],
        });
        for _ in 0..2 {
            let bytes = server
                .get_objects_bytes(id, None, None, Some("(((".to_owned()), 10, None)
                .unwrap();
            let response: Response = serde_json::from_slice(&bytes).unwrap();
            assert!(matches!(response, Response::Error { .. }));
        }
        assert_eq!(server.page_cache_stats(), (0, 0));
        // handle() rejects the same way.
        let response = server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: Some("(((".into()),
            limit: 10,
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    fn stix(id: &str, modified: &str, name: &str) -> serde_json::Value {
        serde_json::json!({"type": "indicator", "id": id, "modified": modified, "name": name})
    }

    fn push(server: &TaxiiServer, id: Uuid, objects: Vec<serde_json::Value>) -> Response {
        server.handle(Request::AddObjects {
            collection: id,
            objects,
        })
    }

    /// Every object of the collection, walked `limit` at a time by
    /// `next` watermarks.
    fn walk(server: &TaxiiServer, id: Uuid, limit: usize) -> Vec<serde_json::Value> {
        Envelope::walk(|added_after| {
            match server.handle(Request::GetObjects {
                collection: id,
                added_after,
                object_type: None,
                match_expr: None,
                limit,
            }) {
                Response::Objects { envelope } => Ok(envelope),
                other => panic!("unexpected {other:?}"),
            }
        })
        .unwrap()
    }

    /// Every object of the collection.
    fn all(server: &TaxiiServer, id: Uuid) -> Vec<serde_json::Value> {
        walk(server, id, MAX_PAGE)
    }

    /// One push of five objects, all with the same arrival millisecond,
    /// walked two at a time, comes back whole and in order.
    #[test]
    fn a_walk_across_one_push_returns_every_object() {
        let (server, id) = server_with_collection();
        let objects: Vec<_> = (0..5).map(|i| serde_json::json!({ "i": i })).collect();
        push(&server, id, objects.clone());
        assert_eq!(walk(&server, id, 2), objects);
    }

    #[test]
    fn identical_re_push_is_accepted_but_changes_nothing() {
        let (server, id) = server_with_collection();
        let objects = vec![
            stix("indicator--a", "2024-01-01T00:00:00Z", "a"),
            stix("indicator--b", "2024-01-01T00:00:00Z", "b"),
        ];
        assert_eq!(
            push(&server, id, objects.clone()),
            Response::Accepted { stored: 2 }
        );
        let page = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let before = all(&server, id).len();

        assert_eq!(
            push(&server, id, objects.clone()),
            Response::Accepted { stored: 2 }
        );
        assert_eq!(all(&server, id), objects);
        assert_eq!(all(&server, id).len(), before);
        let again = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        assert!(Arc::ptr_eq(&page, &again), "the cached page survives");
        assert_eq!(server.page_cache_stats(), (1, 1));
    }

    #[test]
    fn a_new_modified_stores_a_second_version() {
        let (server, id) = server_with_collection();
        push(
            &server,
            id,
            vec![stix("indicator--a", "2024-01-01T00:00:00Z", "a")],
        );
        let before = all(&server, id).len();
        let response = push(
            &server,
            id,
            vec![
                stix("indicator--a", "2024-01-01T00:00:00Z", "a"),
                stix("indicator--a", "2024-02-01T00:00:00Z", "a2"),
            ],
        );
        assert_eq!(response, Response::Accepted { stored: 2 });
        let names: Vec<_> = all(&server, id).iter().map(|o| o["name"].clone()).collect();
        assert_eq!(names, ["a", "a2"]);
        assert_eq!(all(&server, id).len(), before + 1);
    }

    #[test]
    fn objects_without_a_version_identity_are_always_appended() {
        let (server, id) = server_with_collection();
        let objects = vec![
            serde_json::json!({"type": "indicator"}),
            serde_json::json!({"id": "indicator--a"}),
            serde_json::json!({"modified": "2024-01-01T00:00:00Z"}),
            serde_json::json!({"id": "indicator--a", "modified": 7}),
        ];
        for round in 1..=2 {
            assert_eq!(
                push(&server, id, objects.clone()),
                Response::Accepted { stored: 4 }
            );
            assert_eq!(all(&server, id).len(), 4 * round);
        }
    }

    #[test]
    fn dedup_is_per_collection() {
        let (mut server, first) = server_with_collection();
        let second = server.add_collection(Collection::new("other", "d"));
        let object = stix("indicator--a", "2024-01-01T00:00:00Z", "a");
        push(&server, first, vec![object.clone()]);
        push(&server, second, vec![object.clone()]);
        assert_eq!(all(&server, first), all(&server, second));
        assert_eq!(all(&server, first), [object]);
    }

    #[test]
    fn the_first_stored_copy_wins() {
        let (server, id) = server_with_collection();
        let at = "2024-01-01T00:00:00Z";
        push(
            &server,
            id,
            vec![
                stix("indicator--a", at, "first"),
                stix("indicator--a", at, "second"),
            ],
        );
        push(&server, id, vec![stix("indicator--a", at, "third")]);
        assert_eq!(all(&server, id), [stix("indicator--a", at, "first")]);
    }

    #[test]
    fn versions_stored_before_registration_are_held() {
        let mut collection = Collection::new("preloaded", "d");
        let object = stix("indicator--a", "2024-01-01T00:00:00Z", "a");
        collection.add_objects(vec![object.clone()], Timestamp::from_unix_secs(1));
        let mut server = TaxiiServer::new("s");
        let id = server.add_collection(collection);
        push(&server, id, vec![object.clone()]);
        assert_eq!(all(&server, id), [object]);
        assert_eq!(all(&server, id).len(), 1);
    }

    #[test]
    fn a_write_evicts_only_its_collections_stale_pages() {
        let (mut server, id) = server_with_collection();
        let other = server.add_collection(Collection::new("other", "d"));
        for target in [id, other] {
            push(&server, target, vec![serde_json::json!({ "i": 0 })]);
            for limit in [1, 2] {
                server
                    .get_objects_bytes(target, None, None, None, limit, None)
                    .unwrap();
            }
        }
        push(&server, id, vec![serde_json::json!({ "i": 1 })]);
        let entries = server.cache.entries.lock();
        assert!(entries.keys().all(|key| key.collection != id));
        assert_eq!(entries.len(), 2, "the other collection's pages stay");
    }

    #[test]
    fn instrument_surfaces_page_cache_counters() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({ "i": 0 })],
        });
        server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let registry = Registry::new();
        server.instrument(&registry); // pre-loads the earlier miss
        server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["taxii_page_cache_hits_total"], 1);
        assert_eq!(snapshot.counters["taxii_page_cache_misses_total"], 1);
    }

    /// A traced client tags its request frames with `TRACE_FLAG`; the
    /// chaos server must parse them like every other server does.
    #[test]
    fn chaos_server_answers_a_traced_client() {
        let (server, id) = server_with_collection();
        push(&server, id, vec![stix("indicator--a", "2019-01-01", "a")]);
        let addr = server
            .serve_chaos("127.0.0.1:0", FaultPlan::healthy(), "taxii.frame")
            .unwrap();
        let client = crate::TaxiiClient::connect(addr).unwrap();
        client.set_tracer(&Tracer::new());
        assert_eq!(client.discovery().unwrap(), "test server");
        assert_eq!(client.objects(&id, None).unwrap().objects.len(), 1);
    }

    /// Each fault kind, scripted one frame at a time, does what
    /// `serve_chaos` documents.
    #[test]
    fn chaos_service_applies_each_fault_kind() {
        use cais_common::frame::{read_frame, write_frame};
        use std::io::Read;
        use std::net::TcpStream;

        let (server, id) = server_with_collection();
        let plan = FaultPlan::new(0).script(
            "chaos",
            vec![
                Some(FaultKind::Error),
                Some(FaultKind::AckLost),
                Some(FaultKind::Replay),
                Some(FaultKind::Garbage),
                Some(FaultKind::Truncate),
                None,
                Some(FaultKind::Replay),
                Some(FaultKind::Delay(5)),
            ],
        );
        let addr = server.serve_chaos("127.0.0.1:0", plan, "chaos").unwrap();
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            stream
        };
        let send = |stream: &mut TcpStream, request: &Request| {
            write_frame(stream, &serde_json::to_vec(request).unwrap()).unwrap();
        };
        let closes_without_reply = |mut stream: TcpStream| {
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            rest.is_empty()
        };
        let reference = |request: Request| serde_json::to_vec(&server.handle(request)).unwrap();
        let add = |object| Request::AddObjects {
            collection: id,
            objects: vec![object],
        };

        // Error: the frame is lost, the request not applied.
        let mut stream = connect();
        send(&mut stream, &add(stix("indicator--e", "2019-01-01", "e")));
        assert!(closes_without_reply(stream), "Error");
        assert!(all(&server, id).is_empty());

        // AckLost: the request is applied, the reply lost.
        let mut stream = connect();
        send(&mut stream, &add(stix("indicator--a", "2019-01-01", "a")));
        assert!(closes_without_reply(stream), "AckLost");
        assert_eq!(all(&server, id).len(), 1);

        let mut stream = connect();
        // Replay with nothing to replay yet: a normal reply.
        send(&mut stream, &Request::Discovery);
        assert_eq!(
            read_frame(&mut stream).unwrap(),
            reference(Request::Discovery)
        );
        // Garbage: the garbage frame instead of the reply.
        send(&mut stream, &Request::Collections);
        assert_eq!(read_frame(&mut stream).unwrap(), GARBAGE_FRAME);
        // Truncate: the first half of the reply.
        send(&mut stream, &Request::Discovery);
        let discovery = reference(Request::Discovery);
        assert_eq!(
            read_frame(&mut stream).unwrap(),
            &discovery[..discovery.len() / 2]
        );
        // No fault: a normal reply, remembered for the next replay.
        send(&mut stream, &Request::Collections);
        let collections = reference(Request::Collections);
        assert_eq!(read_frame(&mut stream).unwrap(), collections);
        // Replay: the previous reply instead of this one.
        send(&mut stream, &Request::Discovery);
        assert_eq!(read_frame(&mut stream).unwrap(), collections);
        // Delay: virtual, so a normal reply.
        send(&mut stream, &Request::Discovery);
        assert_eq!(read_frame(&mut stream).unwrap(), discovery);
    }
}
