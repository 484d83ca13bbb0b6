//! The zero-clone sharing fast path: cached incremental export.
//!
//! Real MISP deployments spend most of their sharing cycles
//! re-serializing unchanged events for every pull. This module puts an
//! LRU-bounded byte cache between the store and every share seam
//! (export API, TAXII pages, sync pushes, feed pulls):
//!
//! - **Keying** — `(event_uuid, event_version, format)`. The store
//!   bumps an event's version on every update, so a key pins exactly
//!   one event body; export modules are deterministic, so cached bytes
//!   equal a fresh serialization byte-for-byte.
//! - **Invalidation** — never explicit. Stale entries simply stop
//!   being requested (their version is gone) and age out of the LRU.
//!   Whole-store assembled outputs (the pull concatenation and the
//!   combined STIX bundle) are memoized under the store *generation*:
//!   any later insert/update moves the generation and the memo is
//!   rebuilt from per-event cached bytes — the same generation-guard
//!   pattern the reduce memos use.
//! - **Determinism** — the combined STIX bundle is assembled from
//!   per-event object fragments rendered independently (optionally in
//!   parallel) and concatenated in event-id order, producing the exact
//!   bytes of serializing one combined [`cais_stix::Bundle`]; serial
//!   and parallel assembly are byte-identical by construction.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cais_common::Uuid;
use cais_stix::StixId;
use cais_telemetry::{Counter, Gauge, Registry, Tracer};
use parking_lot::{Mutex, RwLock};

use crate::error::MispError;
use crate::export::{stix2, ExportRegistry};
use crate::store::{MispStore, StoreSnapshot, VersionedEvent};

/// Entry kind: a complete single-event document in some format.
const KIND_DOCUMENT: u8 = 0;
/// Entry kind: an event's STIX objects rendered as a pretty-printed
/// bundle fragment (see [`ShareExporter::stix_bundle`]).
const KIND_STIX_FRAGMENT: u8 = 1;
/// Format slot for entries that do not belong to a registry format.
const FORMAT_NONE: u32 = u32::MAX;

/// Assembled-output kind: all event documents joined by newlines.
const ASSEMBLED_PULL: u8 = 0;
/// Assembled-output kind: the combined STIX bundle.
const ASSEMBLED_STIX: u8 = 1;
/// Assembled-output kind: published-only event documents joined by
/// newlines (the export surface indicator decay prunes).
const ASSEMBLED_PULL_PUBLISHED: u8 = 2;

std::thread_local! {
    /// Per-thread byte buffer reused across document serializations.
    static DOC_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread text buffer reused across fragment renders.
    static FRAGMENT_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    uuid: Uuid,
    version: u64,
    format: u32,
    kind: u8,
}

/// The LRU state: entry map plus a tick-ordered recency index. Touch
/// and evict are both `O(log n)` via the [`BTreeMap`].
#[derive(Debug, Default)]
struct Lru {
    entries: HashMap<CacheKey, (Arc<[u8]>, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    bytes: u64,
    capacity: usize,
}

impl Lru {
    fn get(&mut self, key: &CacheKey) -> Option<Arc<[u8]>> {
        let (bytes, tick) = self.entries.get_mut(key)?;
        let bytes = Arc::clone(bytes);
        let old = *tick;
        self.tick += 1;
        *tick = self.tick;
        self.recency.remove(&old);
        self.recency.insert(self.tick, *key);
        Some(bytes)
    }

    /// Inserts an entry, returning how many entries were evicted.
    fn insert(&mut self, key: CacheKey, bytes: Arc<[u8]>) -> u64 {
        if let Some((old_bytes, old_tick)) = self.entries.remove(&key) {
            self.recency.remove(&old_tick);
            self.bytes -= old_bytes.len() as u64;
        }
        let mut evicted = 0;
        while self.entries.len() >= self.capacity.max(1) {
            let Some((&oldest_tick, &oldest_key)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&oldest_tick);
            if let Some((old_bytes, _)) = self.entries.remove(&oldest_key) {
                self.bytes -= old_bytes.len() as u64;
            }
            evicted += 1;
        }
        self.tick += 1;
        self.bytes += bytes.len() as u64;
        self.entries.insert(key, (bytes, self.tick));
        self.recency.insert(self.tick, key);
        evicted
    }
}

/// A whole-store assembled output pinned to the generation it was
/// built from.
#[derive(Debug, Clone)]
struct Assembled {
    generation: u64,
    bytes: Arc<[u8]>,
}

/// Telemetry handles for an instrumented exporter.
#[derive(Debug)]
struct ShareMetrics {
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_entries: Gauge,
    cache_bytes: Gauge,
    bytes_total: Counter,
    assembled_hits: Counter,
    assembled_misses: Counter,
}

impl ShareMetrics {
    fn new(registry: &Registry) -> Self {
        ShareMetrics {
            cache_hits: registry.counter("share_cache_hits_total"),
            cache_misses: registry.counter("share_cache_misses_total"),
            cache_evictions: registry.counter("share_cache_evictions_total"),
            cache_entries: registry.gauge("share_cache_entries"),
            cache_bytes: registry.gauge("share_cache_bytes"),
            bytes_total: registry.counter("share_bytes_total"),
            assembled_hits: registry.counter("share_assembled_hits_total"),
            assembled_misses: registry.counter("share_assembled_misses_total"),
        }
    }
}

/// Point-in-time cache counters, for tests and benches that run
/// without a telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareCacheStats {
    /// Per-event byte-cache hits.
    pub hits: u64,
    /// Per-event byte-cache misses (each one serialized an event).
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Live cached bytes.
    pub bytes: u64,
    /// Whole-store assembled outputs served from the generation memo.
    pub assembled_hits: u64,
    /// Whole-store assembled outputs rebuilt.
    pub assembled_misses: u64,
}

/// The cached, streaming export front-end: an [`ExportRegistry`] plus
/// the per-event byte cache and the generation-guarded assembled-output
/// memos. One instance serves a store's whole share surface.
pub struct ShareExporter {
    registry: ExportRegistry,
    cache: Mutex<Lru>,
    assembled: Mutex<HashMap<(u32, u8), Assembled>>,
    metrics: RwLock<Option<ShareMetrics>>,
    tracer: RwLock<Option<Tracer>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    assembled_hits: AtomicU64,
    assembled_misses: AtomicU64,
}

impl Default for ShareExporter {
    fn default() -> Self {
        ShareExporter::new(ExportRegistry::with_builtins())
    }
}

impl std::fmt::Debug for ShareExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShareExporter")
            .field("formats", &self.registry.formats())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ShareExporter {
    /// Default per-event cache bound. Each entry is one serialized
    /// event document (a few KiB), so the default bounds the cache to
    /// tens of MiB — small against the store it shadows.
    pub const DEFAULT_CAPACITY: usize = 32 * 1024;

    /// Wraps an export registry with the default cache bound.
    pub fn new(registry: ExportRegistry) -> Self {
        ShareExporter::with_capacity(registry, ShareExporter::DEFAULT_CAPACITY)
    }

    /// Wraps an export registry with an explicit cache bound (entries).
    pub fn with_capacity(registry: ExportRegistry, capacity: usize) -> Self {
        ShareExporter {
            registry,
            cache: Mutex::new(Lru {
                capacity: capacity.max(1),
                ..Lru::default()
            }),
            assembled: Mutex::new(HashMap::new()),
            metrics: RwLock::new(None),
            tracer: RwLock::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            assembled_hits: AtomicU64::new(0),
            assembled_misses: AtomicU64::new(0),
        }
    }

    /// Attaches telemetry: cache traffic surfaces as
    /// `share_cache_{hits,misses,evictions}_total`, the live footprint
    /// as `share_cache_entries`/`share_cache_bytes` gauges, served
    /// output as `share_bytes_total`, and the whole-store memos as
    /// `share_assembled_{hits,misses}_total`.
    pub fn instrument(&self, registry: &Registry) {
        *self.metrics.write() = Some(ShareMetrics::new(registry));
    }

    /// Attaches a causal tracer: cache *fills* (the serialization work)
    /// record `share_serialize` spans chained onto the event's linked
    /// trace, so a pull of a freshly ingested event stays inside the
    /// ingress span tree. Cache hits stay untraced — they do no work
    /// worth a span.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = Some(tracer.clone());
    }

    fn tracer(&self) -> Option<Tracer> {
        self.tracer.read().clone()
    }

    /// The wrapped registry, read-only.
    pub fn registry(&self) -> &ExportRegistry {
        &self.registry
    }

    /// Mutable access to the registry, for installing custom modules.
    /// Drops all cached bytes: resolved format indexes (the cache key
    /// space) are only stable while the module list is.
    pub fn exports_mut(&mut self) -> &mut ExportRegistry {
        {
            let mut cache = self.cache.lock();
            cache.entries.clear();
            cache.recency.clear();
            cache.bytes = 0;
        }
        self.assembled.lock().clear();
        self.publish_footprint();
        &mut self.registry
    }

    /// Current cache counters.
    pub fn stats(&self) -> ShareCacheStats {
        let (entries, bytes) = {
            let cache = self.cache.lock();
            (cache.entries.len() as u64, cache.bytes)
        };
        ShareCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            assembled_hits: self.assembled_hits.load(Ordering::Relaxed),
            assembled_misses: self.assembled_misses.load(Ordering::Relaxed),
        }
    }

    /// Serializes one event (by id) in the named format, serving cached
    /// bytes when the event has not changed since they were produced.
    ///
    /// Mirrors the classic registry contract: unknown ids error,
    /// unknown formats yield `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids and
    /// conversion errors from the module.
    pub fn export_event_bytes(
        &self,
        store: &MispStore,
        id: u64,
        format: &str,
    ) -> Result<Option<Arc<[u8]>>, MispError> {
        let versioned = store
            .versioned(id)
            .ok_or(MispError::EventNotFound { event_id: id })?;
        let Some(index) = self.registry.resolve(format) else {
            return Ok(None);
        };
        let bytes = self.document(index, &versioned)?;
        self.count_served(bytes.len());
        Ok(Some(bytes))
    }

    /// Serializes one already-read event handle, through the cache.
    ///
    /// # Errors
    ///
    /// Returns conversion errors from the module; unknown formats yield
    /// `Ok(None)`.
    pub fn versioned_document(
        &self,
        format: &str,
        versioned: &VersionedEvent,
    ) -> Result<Option<Arc<[u8]>>, MispError> {
        let Some(index) = self.registry.resolve(format) else {
            return Ok(None);
        };
        let bytes = self.document(index, versioned)?;
        self.count_served(bytes.len());
        Ok(Some(bytes))
    }

    /// A full pull: every stored event serialized in the named format,
    /// in id order, joined by single newlines. Unchanged events are
    /// served from the byte cache; an unchanged *store* is served from
    /// the generation memo without touching per-event entries at all.
    /// `workers > 1` serializes cold events in parallel — the output
    /// bytes are identical regardless of worker count.
    ///
    /// # Errors
    ///
    /// Returns conversion errors; unknown formats yield `Ok(None)`.
    pub fn pull(
        &self,
        store: &MispStore,
        format: &str,
        workers: usize,
    ) -> Result<Option<Arc<[u8]>>, MispError> {
        let Some(index) = self.registry.resolve(format) else {
            return Ok(None);
        };
        let snapshot = store.snapshot();
        let memo_key = (index as u32, ASSEMBLED_PULL);
        if let Some(bytes) = self.assembled_lookup(memo_key, snapshot.generation()) {
            self.count_served(bytes.len());
            return Ok(Some(bytes));
        }

        let documents = self.documents_for(index, &snapshot, workers)?;
        let total: usize =
            documents.iter().map(|d| d.len()).sum::<usize>() + documents.len().saturating_sub(1);
        let mut out: Vec<u8> = Vec::with_capacity(total);
        for (i, doc) in documents.iter().enumerate() {
            if i > 0 {
                out.push(b'\n');
            }
            out.extend_from_slice(doc);
        }
        let bytes: Arc<[u8]> = Arc::from(out);
        self.assembled_store(memo_key, snapshot.generation(), &bytes);
        self.count_served(bytes.len());
        Ok(Some(bytes))
    }

    /// A published-only pull: like [`ShareExporter::pull`] but covering
    /// only events whose `published` flag is set — the share surface the
    /// decay lifecycle prunes. An event that decays below the expiry
    /// threshold is unpublished by the sweep (one store update), which
    /// bumps its version *and* the store generation: the per-event byte
    /// cache stops being asked for the stale version and this memo
    /// rebuilds, so no pull ever serves a decayed-out event from cache.
    ///
    /// # Errors
    ///
    /// Returns conversion errors; unknown formats yield `Ok(None)`.
    pub fn pull_published(
        &self,
        store: &MispStore,
        format: &str,
    ) -> Result<Option<Arc<[u8]>>, MispError> {
        let Some(index) = self.registry.resolve(format) else {
            return Ok(None);
        };
        let snapshot = store.snapshot();
        let memo_key = (index as u32, ASSEMBLED_PULL_PUBLISHED);
        if let Some(bytes) = self.assembled_lookup(memo_key, snapshot.generation()) {
            self.count_served(bytes.len());
            return Ok(Some(bytes));
        }

        let mut out: Vec<u8> = Vec::new();
        for versioned in snapshot.iter().filter(|v| v.event.published) {
            if !out.is_empty() {
                out.push(b'\n');
            }
            let doc = self.document(index, versioned)?;
            out.extend_from_slice(&doc);
        }
        let bytes: Arc<[u8]> = Arc::from(out);
        self.assembled_store(memo_key, snapshot.generation(), &bytes);
        self.count_served(bytes.len());
        Ok(Some(bytes))
    }

    /// The combined STIX 2.0 bundle of the whole store: every event's
    /// objects (indicators, vulnerabilities, report) in event-id order
    /// inside a single bundle whose id derives from the exact set of
    /// `(event uuid, version)` pairs it covers.
    ///
    /// Assembly is fragment-based: each event's objects are rendered as
    /// an independent pretty-printed fragment (cached per event
    /// version, rendered in parallel when `workers > 1`) and
    /// concatenated in a single ordered pass. The result is
    /// byte-identical to serializing one [`cais_stix::Bundle`] holding
    /// the same objects — and identical across worker counts.
    ///
    /// # Errors
    ///
    /// Returns conversion errors from object serialization.
    pub fn stix_bundle(&self, store: &MispStore, workers: usize) -> Result<Arc<[u8]>, MispError> {
        let snapshot = store.snapshot();
        let memo_key = (FORMAT_NONE, ASSEMBLED_STIX);
        if let Some(bytes) = self.assembled_lookup(memo_key, snapshot.generation()) {
            self.count_served(bytes.len());
            return Ok(bytes);
        }

        let fragments = self.map_events(&snapshot, workers, |versioned| {
            self.stix_fragment(versioned)
        })?;

        let id = combined_bundle_id(&snapshot);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"type\": \"bundle\",\n  \"id\": \"{id}\",\n  \"spec_version\": \"2.0\",\n  \"objects\": ["
        );
        if fragments.is_empty() {
            out.push_str("]\n}");
        } else {
            for (i, fragment) in fragments.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                // Fragments are UTF-8 by construction (JSON text).
                out.push_str(std::str::from_utf8(fragment).expect("fragment is JSON text"));
            }
            out.push_str("\n  ]\n}");
        }
        let bytes: Arc<[u8]> = Arc::from(out.into_bytes());
        self.assembled_store(memo_key, snapshot.generation(), &bytes);
        self.count_served(bytes.len());
        Ok(bytes)
    }

    /// Serializes every event of a snapshot in id order (no joining).
    /// Shared by [`ShareExporter::pull`] and the TAXII seam.
    ///
    /// # Errors
    ///
    /// Returns the first conversion error encountered.
    pub fn documents_for(
        &self,
        index: usize,
        snapshot: &StoreSnapshot,
        workers: usize,
    ) -> Result<Vec<Arc<[u8]>>, MispError> {
        self.map_events(snapshot, workers, |versioned| {
            self.document(index, versioned)
        })
    }

    /// One event document through the cache, by resolved format index.
    ///
    /// # Errors
    ///
    /// Returns conversion errors from the module.
    pub fn document(
        &self,
        index: usize,
        versioned: &VersionedEvent,
    ) -> Result<Arc<[u8]>, MispError> {
        let key = CacheKey {
            uuid: versioned.event.uuid,
            version: versioned.version,
            format: index as u32,
            kind: KIND_DOCUMENT,
        };
        if let Some(bytes) = self.cache_lookup(&key) {
            return Ok(bytes);
        }
        let mut span = self.tracer().map(|t| {
            t.follow(
                &versioned.event.uuid.to_string(),
                "share",
                "share_serialize",
            )
        });
        let module = self
            .registry
            .module(index)
            .ok_or_else(|| MispError::Io(std::io::Error::other("stale export module index")))?;
        let bytes: Arc<[u8]> = DOC_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            module.write_into(&versioned.event, &mut *buf)?;
            Ok::<_, MispError>(Arc::from(buf.as_slice()))
        })?;
        if let Some(span) = span.as_mut() {
            span.field("bytes", bytes.len());
        }
        self.cache_store(key, &bytes);
        Ok(bytes)
    }

    /// One event's STIX objects as a pretty bundle fragment: each
    /// object rendered at nesting level 2 behind a `\n    ` prefix,
    /// comma-separated — exactly the bytes those objects occupy inside
    /// a serialized bundle's `objects` array.
    fn stix_fragment(&self, versioned: &VersionedEvent) -> Result<Arc<[u8]>, MispError> {
        let key = CacheKey {
            uuid: versioned.event.uuid,
            version: versioned.version,
            format: FORMAT_NONE,
            kind: KIND_STIX_FRAGMENT,
        };
        if let Some(bytes) = self.cache_lookup(&key) {
            return Ok(bytes);
        }
        let bytes: Arc<[u8]> = FRAGMENT_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            for (i, object) in stix2::to_objects(&versioned.event).iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                buf.push_str("\n    ");
                serde_json::to_value(object)?.write_json_string_pretty_at(&mut buf, 2);
            }
            Ok::<_, MispError>(Arc::from(buf.as_bytes()))
        })?;
        self.cache_store(key, &bytes);
        Ok(bytes)
    }

    /// Maps `f` over a snapshot's events in id order, splitting the
    /// snapshot into contiguous chunks across `workers` scoped threads
    /// when asked. Chunk outputs are re-joined in chunk order, so the
    /// result is independent of the worker count.
    fn map_events<F>(
        &self,
        snapshot: &StoreSnapshot,
        workers: usize,
        f: F,
    ) -> Result<Vec<Arc<[u8]>>, MispError>
    where
        F: Fn(&VersionedEvent) -> Result<Arc<[u8]>, MispError> + Sync,
    {
        let events = snapshot.events();
        let workers = workers.clamp(1, events.len().max(1));
        if workers == 1 {
            return events.iter().map(&f).collect();
        }
        let chunk_size = events.len().div_ceil(workers);
        let chunks: Vec<&[VersionedEvent]> = events.chunks(chunk_size).collect();
        let results: Vec<Result<Vec<Arc<[u8]>>, MispError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("share worker panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(events.len());
        for chunk in results {
            out.extend(chunk?);
        }
        Ok(out)
    }

    fn cache_lookup(&self, key: &CacheKey) -> Option<Arc<[u8]>> {
        let hit = self.cache.lock().get(key);
        let metrics = self.metrics.read();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics.as_ref() {
                m.cache_hits.inc();
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics.as_ref() {
                m.cache_misses.inc();
            }
        }
        hit
    }

    fn cache_store(&self, key: CacheKey, bytes: &Arc<[u8]>) {
        let (evicted, entries, live_bytes) = {
            let mut cache = self.cache.lock();
            let evicted = cache.insert(key, Arc::clone(bytes));
            (evicted, cache.entries.len() as i64, cache.bytes as i64)
        };
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if let Some(m) = self.metrics.read().as_ref() {
            if evicted > 0 {
                m.cache_evictions.add(evicted);
            }
            m.cache_entries.set(entries);
            m.cache_bytes.set(live_bytes);
        }
    }

    fn assembled_lookup(&self, key: (u32, u8), generation: u64) -> Option<Arc<[u8]>> {
        let hit = {
            let assembled = self.assembled.lock();
            assembled
                .get(&key)
                .filter(|a| a.generation == generation)
                .map(|a| Arc::clone(&a.bytes))
        };
        let metrics = self.metrics.read();
        if hit.is_some() {
            self.assembled_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics.as_ref() {
                m.assembled_hits.inc();
            }
        } else {
            self.assembled_misses.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics.as_ref() {
                m.assembled_misses.inc();
            }
        }
        hit
    }

    fn assembled_store(&self, key: (u32, u8), generation: u64, bytes: &Arc<[u8]>) {
        self.assembled.lock().insert(
            key,
            Assembled {
                generation,
                bytes: Arc::clone(bytes),
            },
        );
    }

    fn count_served(&self, len: usize) {
        if let Some(m) = self.metrics.read().as_ref() {
            m.bytes_total.add(len as u64);
        }
    }

    fn publish_footprint(&self) {
        let (entries, bytes) = {
            let cache = self.cache.lock();
            (cache.entries.len() as i64, cache.bytes as i64)
        };
        if let Some(m) = self.metrics.read().as_ref() {
            m.cache_entries.set(entries);
            m.cache_bytes.set(bytes);
        }
    }
}

/// The deterministic id of the combined bundle for a snapshot: derived
/// from the exact `(uuid, version)` set, so the same store content
/// always yields the same bundle id and any change yields a new one.
fn combined_bundle_id(snapshot: &StoreSnapshot) -> StixId {
    let mut name = String::from("misp-pull:");
    for versioned in snapshot.iter() {
        let _ = write!(name, "{}:{};", versioned.event.uuid, versioned.version);
    }
    StixId::derived("bundle", &name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttributeCategory, MispAttribute};
    use crate::event::MispEvent;

    fn seeded_store(n: u64) -> MispStore {
        let store = MispStore::new();
        for i in 0..n {
            let mut event = MispEvent::new(format!("event {i}"));
            event.add_attribute(MispAttribute::new(
                "domain",
                AttributeCategory::NetworkActivity,
                format!("host-{i}.example"),
            ));
            event.add_attribute(MispAttribute::new(
                "vulnerability",
                AttributeCategory::ExternalAnalysis,
                format!("CVE-2017-{:04}", 9000 + i),
            ));
            store.insert(event).unwrap();
        }
        store
    }

    fn naive_pull(store: &MispStore, format: &str) -> String {
        let registry = ExportRegistry::with_builtins();
        store
            .snapshot()
            .iter()
            .map(|versioned| registry.export(format, &versioned.event).unwrap().unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn cached_bytes_match_naive_export() {
        let store = seeded_store(5);
        let share = ShareExporter::default();
        for format in ["misp-json", "stix2", "stix1", "misp-feed", "csv"] {
            for versioned in store.snapshot().iter() {
                let cached = share
                    .versioned_document(format, versioned)
                    .unwrap()
                    .unwrap();
                let naive = ShareExporter::default()
                    .registry()
                    .export(format, &versioned.event)
                    .unwrap()
                    .unwrap();
                assert_eq!(&cached[..], naive.as_bytes(), "format {format}");
                // Second read must come from cache with identical bytes.
                let again = share
                    .versioned_document(format, versioned)
                    .unwrap()
                    .unwrap();
                assert!(Arc::ptr_eq(&cached, &again), "format {format}");
            }
        }
    }

    #[test]
    fn pull_joins_documents_and_memoizes() {
        let store = seeded_store(4);
        let share = ShareExporter::default();
        let first = share.pull(&store, "misp-json", 1).unwrap().unwrap();
        assert_eq!(
            std::str::from_utf8(&first).unwrap(),
            naive_pull(&store, "misp-json")
        );
        let warm = share.pull(&store, "misp-json", 1).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &warm));
        let stats = share.stats();
        assert_eq!(stats.assembled_hits, 1);
        assert_eq!(stats.assembled_misses, 1);
    }

    #[test]
    fn churn_reserializes_only_changed_events() {
        let store = seeded_store(10);
        let share = ShareExporter::default();
        share.pull(&store, "misp-json", 1).unwrap().unwrap();
        let cold = share.stats();
        assert_eq!(cold.misses, 10);

        store
            .update(3, |event| event.info = "changed".into())
            .unwrap();
        let second = share.pull(&store, "misp-json", 1).unwrap().unwrap();
        let warm = share.stats();
        // Exactly one event re-serialized; nine served from cache.
        assert_eq!(warm.misses - cold.misses, 1);
        assert_eq!(warm.hits - cold.hits, 9);
        assert_eq!(
            std::str::from_utf8(&second).unwrap(),
            naive_pull(&store, "misp-json")
        );
    }

    #[test]
    fn pull_published_prunes_and_invalidates_on_unpublish() {
        let store = seeded_store(4);
        for id in 1..=3 {
            store.publish(id).unwrap();
        }
        let share = ShareExporter::default();
        let first = share.pull_published(&store, "misp-json").unwrap().unwrap();
        let text = std::str::from_utf8(&first).unwrap();
        assert_eq!(text.matches("\"event ").count(), 3);
        assert!(!text.contains("event 3"), "unpublished event exported");
        // Unchanged store: served from the generation memo.
        let warm = share.pull_published(&store, "misp-json").unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &warm));

        // Unpublishing (what a decay sweep does) moves the generation;
        // the next pull drops the event instead of replaying stale
        // memoized bytes.
        store.update(2, |event| event.published = false).unwrap();
        let pruned = share.pull_published(&store, "misp-json").unwrap().unwrap();
        let text = std::str::from_utf8(&pruned).unwrap();
        assert_eq!(text.matches("\"event ").count(), 2);
        assert!(!text.contains("event 1"), "stale event still exported");
    }

    #[test]
    fn pull_is_parallel_deterministic() {
        let store = seeded_store(13);
        for format in ["misp-json", "csv", "stix2"] {
            let serial = ShareExporter::default()
                .pull(&store, format, 1)
                .unwrap()
                .unwrap();
            let parallel = ShareExporter::default()
                .pull(&store, format, 4)
                .unwrap()
                .unwrap();
            assert_eq!(&serial[..], &parallel[..], "format {format}");
        }
    }

    #[test]
    fn unknown_format_pulls_none() {
        let store = seeded_store(1);
        let share = ShareExporter::default();
        assert!(share.pull(&store, "openioc", 1).unwrap().is_none());
        assert!(share
            .export_event_bytes(&store, 1, "openioc")
            .unwrap()
            .is_none());
        assert!(matches!(
            share.export_event_bytes(&store, 99, "csv"),
            Err(MispError::EventNotFound { event_id: 99 })
        ));
    }

    #[test]
    fn stix_bundle_matches_whole_bundle_serialization() {
        use cais_stix::prelude::*;

        let store = seeded_store(6);
        let share = ShareExporter::default();
        let assembled = share.stix_bundle(&store, 1).unwrap();

        // Reference: one Bundle holding every event's objects in id
        // order, with the same derived id.
        let snapshot = store.snapshot();
        let mut objects = Vec::new();
        for versioned in snapshot.iter() {
            objects.extend(stix2::to_objects(&versioned.event));
        }
        let mut bundle = Bundle::new(objects);
        bundle.id = combined_bundle_id(&snapshot);
        let reference = bundle.to_json_pretty().unwrap();

        assert_eq!(std::str::from_utf8(&assembled).unwrap(), reference);
    }

    #[test]
    fn stix_bundle_serial_equals_parallel() {
        let store = seeded_store(9);
        let serial = ShareExporter::default().stix_bundle(&store, 1).unwrap();
        let parallel = ShareExporter::default().stix_bundle(&store, 4).unwrap();
        assert_eq!(&serial[..], &parallel[..]);

        // And the memo serves the identical Arc on a warm call.
        let share = ShareExporter::default();
        let first = share.stix_bundle(&store, 4).unwrap();
        let second = share.stix_bundle(&store, 4).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn empty_store_yields_empty_objects_array() {
        use cais_stix::prelude::*;

        let store = MispStore::new();
        let share = ShareExporter::default();
        let assembled = share.stix_bundle(&store, 1).unwrap();
        let snapshot = store.snapshot();
        let mut bundle = Bundle::empty();
        bundle.id = combined_bundle_id(&snapshot);
        assert_eq!(
            std::str::from_utf8(&assembled).unwrap(),
            bundle.to_json_pretty().unwrap()
        );
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let store = seeded_store(8);
        let share = ShareExporter::with_capacity(ExportRegistry::with_builtins(), 4);
        share.pull(&store, "csv", 1).unwrap().unwrap();
        let stats = share.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.evictions, 4);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn telemetry_counters_surface() {
        let registry = Registry::new();
        let store = seeded_store(3);
        let share = ShareExporter::default();
        share.instrument(&registry);
        share.pull(&store, "misp-json", 1).unwrap().unwrap();
        share.pull(&store, "misp-json", 1).unwrap().unwrap();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["share_cache_misses_total"], 3);
        assert_eq!(snapshot.counters["share_assembled_hits_total"], 1);
        assert!(snapshot.counters["share_bytes_total"] > 0);
        assert_eq!(snapshot.gauges["share_cache_entries"], 3);
        assert!(snapshot.gauges["share_cache_bytes"] > 0);
    }

    #[test]
    fn cache_fill_chains_onto_the_event_trace() {
        let tracer = Tracer::new();
        let store = MispStore::new();
        store.set_tracer(&tracer);
        let share = ShareExporter::default();
        share.set_tracer(&tracer);

        let mut event = MispEvent::new("traced");
        event.add_attribute(MispAttribute::new(
            "domain",
            AttributeCategory::NetworkActivity,
            "traced.example",
        ));
        let id = store.insert(event).unwrap();

        // Cold read fills the cache (one span); warm read is silent.
        share.export_event_bytes(&store, id, "misp-json").unwrap();
        share.export_event_bytes(&store, id, "misp-json").unwrap();

        let insert = tracer
            .snapshot_subsystem("store")
            .into_iter()
            .find(|s| s.name == "store_insert")
            .unwrap();
        let share_spans = tracer.snapshot_subsystem("share");
        assert_eq!(share_spans.len(), 1, "cache hits record no span");
        assert_eq!(share_spans[0].name, "share_serialize");
        assert_eq!(share_spans[0].parent_id, insert.span_id);
        assert_eq!(share_spans[0].trace_id, insert.trace_id);
    }

    #[test]
    fn installing_a_module_clears_the_cache() {
        let store = seeded_store(2);
        let mut share = ShareExporter::default();
        share.pull(&store, "csv", 1).unwrap().unwrap();
        assert!(share.stats().entries > 0);
        struct Null;
        impl crate::export::ExportModule for Null {
            fn format_name(&self) -> &str {
                "null"
            }
            fn write_into(
                &self,
                _event: &MispEvent,
                out: &mut dyn std::io::Write,
            ) -> Result<(), MispError> {
                out.write_all(b"-").map_err(MispError::from)
            }
        }
        share.exports_mut().install(Box::new(Null));
        assert_eq!(share.stats().entries, 0);
        let out = share.pull(&store, "null", 1).unwrap().unwrap();
        assert_eq!(&out[..], b"-\n-");
    }
}
