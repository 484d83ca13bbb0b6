//! The PyMISP-style API facade with zmq-style publishing.
//!
//! "Both OSINT data and Infrastructure Data Collectors send IoCs to the
//! MISP instance of the Operational Module through a set of API
//! provided by the latter … events … trigger a built-in automated, and
//! real-time, sharing mechanism, based on the asynchronous messaging
//! library zeroMQ" (Section IV-A). [`MispApi`] is that API surface;
//! adding or publishing an event pushes it onto the attached
//! [`cais_bus::Broker`] under `misp.event.*` topics.

use std::sync::Arc;

use cais_bus::{Broker, Topic};
use cais_telemetry::{Registry, TraceContext, Tracer};

use crate::attribute::MispAttribute;
use crate::correlation::{correlate_event, Correlation};
use crate::error::MispError;
use crate::event::MispEvent;
use crate::export::ExportRegistry;
use crate::share::ShareExporter;
use crate::store::{MispStore, SearchBackend, SearchQuery, VersionedEvent};

/// The MISP instance facade: store + cached export front-end + event
/// bus.
pub struct MispApi {
    org: String,
    store: Arc<MispStore>,
    share: ShareExporter,
    broker: Option<Broker>,
    tracer: parking_lot::RwLock<Option<Tracer>>,
    search_backend: parking_lot::RwLock<Option<Arc<dyn SearchBackend>>>,
}

impl MispApi {
    /// Creates an instance for the given organization, without a bus.
    pub fn new(org: impl Into<String>) -> Self {
        MispApi {
            org: org.into(),
            store: Arc::new(MispStore::new()),
            share: ShareExporter::default(),
            broker: None,
            tracer: parking_lot::RwLock::new(None),
            search_backend: parking_lot::RwLock::new(None),
        }
    }

    /// Attaches a message bus: every added event is announced on
    /// `misp.event.created`, every published event on
    /// `misp.event.published`.
    pub fn with_broker(mut self, broker: Broker) -> Self {
        self.broker = Some(broker);
        self
    }

    /// The owning organization.
    pub fn org(&self) -> &str {
        &self.org
    }

    /// The underlying store (shared).
    pub fn store(&self) -> &Arc<MispStore> {
        &self.store
    }

    /// The export registry, for installing custom modules. Installing
    /// a module drops cached export bytes (format resolution changes).
    pub fn exports_mut(&mut self) -> &mut ExportRegistry {
        self.share.exports_mut()
    }

    /// The cached share front-end (export byte cache, pull memos,
    /// combined STIX bundles).
    pub fn share(&self) -> &ShareExporter {
        &self.share
    }

    /// Attaches telemetry to the whole MISP seam: store mutation
    /// counters plus `share_*` cache metrics.
    pub fn instrument(&self, registry: &Registry) {
        self.store.instrument(registry);
        self.share.instrument(registry);
    }

    /// Attaches a causal tracer to the whole MISP seam: store mutations
    /// record `store` spans, share cache fills record `share` spans,
    /// and bus announcements chain onto the mutated event's trace.
    pub fn set_tracer(&self, tracer: &Tracer) {
        self.store.set_tracer(tracer);
        self.share.set_tracer(tracer);
        *self.tracer.write() = Some(tracer.clone());
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.read().clone()
    }

    /// Adds an event, stamping the organization, and announces it on the
    /// bus.
    ///
    /// # Errors
    ///
    /// Returns validation errors from the store.
    pub fn add_event(&self, event: MispEvent) -> Result<u64, MispError> {
        self.add_event_with_trace(event, None)
    }

    /// [`MispApi::add_event`] recorded as a child of `parent` when a
    /// tracer is attached — ingress seams (sync push, feed ingest) pass
    /// their span here so the store mutation and bus announcement stay
    /// in the caller's trace.
    ///
    /// # Errors
    ///
    /// Returns validation errors from the store.
    pub fn add_event_with_trace(
        &self,
        mut event: MispEvent,
        parent: Option<TraceContext>,
    ) -> Result<u64, MispError> {
        event.org = self.org.clone();
        let id = self.store.insert_with_trace(event, parent)?;
        self.announce("misp.event.created", id);
        Ok(id)
    }

    /// Fetches an event.
    pub fn get_event(&self, id: u64) -> Option<MispEvent> {
        self.store.get(id)
    }

    /// Appends an attribute to an existing event and re-announces it.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] or validation errors.
    pub fn add_attribute(&self, event_id: u64, attribute: MispAttribute) -> Result<(), MispError> {
        attribute.validate()?;
        self.update_event(event_id, |event| {
            event.add_attribute(attribute);
        })
    }

    /// Applies an arbitrary in-place edit to an event and announces it
    /// once on `misp.event.updated` — the batched alternative to a
    /// sequence of [`MispApi::add_attribute`] calls, paying for one
    /// store update and one announcement however many attributes and
    /// tags the closure applies. The closure is NOT re-validated;
    /// callers adding attributes should validate them first.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids.
    pub fn update_event<F: FnOnce(&mut MispEvent)>(
        &self,
        event_id: u64,
        f: F,
    ) -> Result<(), MispError> {
        self.store.update(event_id, f)?;
        self.announce("misp.event.updated", event_id);
        Ok(())
    }

    /// Publishes an event (marks it published, announces on the bus).
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids.
    pub fn publish_event(&self, id: u64) -> Result<(), MispError> {
        self.store.update(id, |event| event.published = true)?;
        self.announce("misp.event.published", id);
        Ok(())
    }

    /// Attaches a search backend (the `cais-search` inverted index);
    /// [`MispApi::search`] routes through it from then on. The backend
    /// must uphold the [`SearchBackend`] equivalence contract against
    /// [`MispApi::search_linear`].
    pub fn set_search_backend(&self, backend: Arc<dyn SearchBackend>) {
        *self.search_backend.write() = Some(backend);
    }

    /// Events whose attributes carry the exact (normalized) value, as
    /// zero-clone versioned handles ordered by event id — straight off
    /// the correlation index, no event walk, no body clones.
    pub fn search_value(&self, value: &str) -> Vec<VersionedEvent> {
        let mut ids = self.store.events_with_value(value);
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|id| self.store.versioned(id))
            .collect()
    }

    /// Filtered search over events, as zero-clone versioned handles
    /// ordered by event id. Routes through the attached
    /// [`SearchBackend`] when one is set (the `cais-search` inverted
    /// index: O(postings) per term instead of a full scan), else falls
    /// back to the linear scan — both produce identical results, a
    /// contract the search crate's equivalence property tests enforce.
    pub fn search(&self, query: &SearchQuery) -> Vec<VersionedEvent> {
        if let Some(backend) = self.search_backend.read().clone() {
            return backend.search_query(&self.store, query);
        }
        self.store.search_linear(query)
    }

    /// Filtered search by linear scan, bypassing any attached backend —
    /// the reference baseline the indexed path is tested against.
    pub fn search_linear(&self, query: &SearchQuery) -> Vec<VersionedEvent> {
        self.store.search_linear(query)
    }

    /// The correlations of one event against the rest of the store.
    pub fn correlations(&self, event_id: u64) -> Vec<Correlation> {
        correlate_event(&self.store, event_id)
    }

    /// Exports an event in a named format (`misp-json`, `stix2`, `csv`).
    /// Served from the share cache: repeated exports of an unchanged
    /// event replay stored bytes instead of re-serializing.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids and
    /// conversion errors from the module; unknown formats yield
    /// `Ok(None)` from the registry and surface here as
    /// [`MispError::Json`]-free `None`.
    pub fn export_event(&self, id: u64, format: &str) -> Result<Option<String>, MispError> {
        Ok(self
            .export_event_bytes(id, format)?
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned()))
    }

    /// Byte-level export through the share cache: the `Arc<[u8]>` is
    /// shared with the cache, so serving it clones no event and copies
    /// no bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids and
    /// conversion errors from the module.
    pub fn export_event_bytes(
        &self,
        id: u64,
        format: &str,
    ) -> Result<Option<Arc<[u8]>>, MispError> {
        self.share.export_event_bytes(&self.store, id, format)
    }

    /// Announces an event on the bus (no-op without a broker). Exposed
    /// crate-internally so the sync apply path can announce merges the
    /// same way API mutations do. The payload is serialized under the
    /// store's read lock, and only when a subscription observes the
    /// topic.
    pub(crate) fn announce(&self, topic: &str, event_id: u64) {
        if let Some(broker) = &self.broker {
            // Chain the publish onto the event's trace (linked at
            // insert/update) so bus fan-out joins the span tree.
            let parent = self.tracer.read().as_ref().and_then(|t| {
                let uuid = self.store.with_event(event_id, |event| event.uuid)?;
                t.linked(&uuid.to_string())
            });
            broker.publish_with(
                Topic::new(topic),
                1,
                |_| {
                    self.store
                        .with_event(event_id, |event| serde_json::to_value(event).ok())
                        .flatten()
                },
                parent,
            );
        }
    }
}

impl std::fmt::Debug for MispApi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MispApi")
            .field("org", &self.org)
            .field("events", &self.store.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeCategory;

    fn event(info: &str, value: &str) -> MispEvent {
        let mut e = MispEvent::new(info);
        e.add_attribute(MispAttribute::new(
            "domain",
            AttributeCategory::NetworkActivity,
            value,
        ));
        e
    }

    #[test]
    fn add_stamps_org_and_searches() {
        let api = MispApi::new("ACME");
        let id = api.add_event(event("a", "evil.example")).unwrap();
        let stored = api.get_event(id).unwrap();
        assert_eq!(stored.org, "ACME");
        assert_eq!(api.search_value("evil.example").len(), 1);
    }

    #[test]
    fn bus_announcements() {
        let broker = Broker::new();
        let sub = broker.subscribe("misp.event.*");
        let api = MispApi::new("ACME").with_broker(broker);
        let id = api.add_event(event("a", "evil.example")).unwrap();
        api.publish_event(id).unwrap();
        let messages = sub.drain();
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[0].topic.as_str(), "misp.event.created");
        assert_eq!(messages[1].topic.as_str(), "misp.event.published");
        // Payload is the full event, decodable.
        let decoded: MispEvent = messages[1].decode().unwrap();
        assert!(decoded.published);
    }

    #[test]
    fn add_attribute_updates_and_announces() {
        let broker = Broker::new();
        let sub = broker.subscribe("misp.event.updated");
        let api = MispApi::new("ACME").with_broker(broker);
        let id = api.add_event(event("a", "evil.example")).unwrap();
        api.add_attribute(
            id,
            MispAttribute::new("ip-dst", AttributeCategory::NetworkActivity, "203.0.113.9"),
        )
        .unwrap();
        assert_eq!(sub.drain().len(), 1);
        assert_eq!(api.get_event(id).unwrap().attributes.len(), 2);
    }

    #[test]
    fn export_via_registry() {
        let api = MispApi::new("ACME");
        let id = api.add_event(event("a", "evil.example")).unwrap();
        let json = api.export_event(id, "misp-json").unwrap().unwrap();
        assert!(json.contains("evil.example"));
        let stix = api.export_event(id, "stix2").unwrap().unwrap();
        assert!(stix.contains("bundle"));
        assert!(api.export_event(id, "nonexistent").unwrap().is_none());
        assert!(api.export_event(999, "csv").is_err());
    }

    #[test]
    fn repeat_exports_replay_cached_bytes() {
        let api = MispApi::new("ACME");
        let id = api.add_event(event("a", "evil.example")).unwrap();
        let first = api.export_event_bytes(id, "misp-json").unwrap().unwrap();
        let second = api.export_event_bytes(id, "misp-json").unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(api.share().stats().hits, 1);

        // Updating the event changes its version: fresh bytes.
        api.update_event(id, |e| e.info = "renamed".into()).unwrap();
        let third = api.export_event_bytes(id, "misp-json").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert!(String::from_utf8_lossy(&third).contains("renamed"));
    }

    #[test]
    fn correlations_through_api() {
        let api = MispApi::new("ACME");
        let a = api.add_event(event("a", "shared.example")).unwrap();
        let b = api.add_event(event("b", "shared.example")).unwrap();
        let hits = api.correlations(a);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].other_event_id, b);
    }
}
