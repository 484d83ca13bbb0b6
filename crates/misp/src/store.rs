//! The indexed in-memory event store — MISP's "relational database".
//!
//! Events live behind [`Arc`] so read paths (export, sync, correlation,
//! dashboards) can take cheap reference-counted snapshots instead of
//! deep-cloning event bodies. Every event carries a monotonically
//! increasing *version* (bumped on each [`MispStore::update`]) and the
//! store carries a *generation* (bumped on every mutation); together
//! they key the incremental export cache in [`crate::share`].
//!
//! Every insert and update also appends the event id to the store's
//! change log, and the generation *is* that log's length. Derived
//! views (decay scores, the search index, federation edges) follow the
//! log through [`MispStore::changes`]: one call hands back the ids to
//! re-derive since the view's [`ChangeCursor`], or every id plus
//! `reset` when the view has no cursor for this store.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cais_common::{Timestamp, Uuid};
use cais_telemetry::{Counter, Registry, TraceContext, Tracer};
use parking_lot::{Mutex, RwLock};

use crate::attribute::MispAttribute;
use crate::error::MispError;
use crate::event::MispEvent;

/// What [`MispStore::merge_by_uuid`] did with an incoming event copy.
///
/// The variants carry the store id of the event the copy landed on (or
/// confirmed), so callers can announce or trace the affected event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// First delivery of this UUID: inserted as a new event.
    Inserted(u64),
    /// The UUID was known and the copy contributed something new
    /// (attributes, tags, a wider distribution, or a publish).
    Merged(u64),
    /// The UUID was known and the copy contributed nothing — the
    /// idempotent confirm of a replayed or re-delivered copy.
    Unchanged(u64),
}

impl MergeOutcome {
    /// The store id of the affected (or confirmed) event.
    pub fn event_id(&self) -> u64 {
        match self {
            MergeOutcome::Inserted(id) | MergeOutcome::Merged(id) | MergeOutcome::Unchanged(id) => {
                *id
            }
        }
    }
}

/// Cached telemetry handles for an instrumented store.
///
/// Counters are *outcome-level*: they track what ended up in the store
/// (events inserted, attributes/tags written, publish transitions),
/// not how many API calls produced it — so a path that pre-builds an
/// event and inserts it once reports exactly what a path that inserts
/// then updates does.
#[derive(Debug)]
struct StoreMetrics {
    events_inserted: Counter,
    attributes_written: Counter,
    tags_written: Counter,
    events_published: Counter,
    sightings: Counter,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        StoreMetrics {
            events_inserted: registry.counter("misp_events_inserted_total"),
            attributes_written: registry.counter("misp_attributes_written_total"),
            tags_written: registry.counter("misp_tags_written_total"),
            events_published: registry.counter("misp_events_published_total"),
            sightings: registry.counter("misp_sightings_total"),
        }
    }
}

/// One sighting of an attribute value: somebody (a sensor, an analyst,
/// a partner) confirmed seeing the value in the wild. MISP exposes the
/// same concept through its `/sightings` API; the paper's Timeliness
/// criterion asks exactly this question ("is a detected event related
/// to an already detected one").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventSighting {
    /// The event whose attribute was sighted.
    pub event_id: u64,
    /// Who reported the sighting.
    pub source: String,
    /// When it was seen.
    pub seen_at: Timestamp,
}

/// Search filters for [`MispStore::search`]. Empty fields do not
/// constrain.
#[derive(Debug, Clone, Default)]
pub struct SearchQuery {
    /// Exact attribute type (`ip-dst`).
    pub attr_type: Option<String>,
    /// Case-insensitive substring of the attribute value.
    pub value_contains: Option<String>,
    /// Exact event-level tag name.
    pub tag: Option<String>,
    /// Only events dated at or after this instant.
    pub since: Option<Timestamp>,
    /// Only published events.
    pub published_only: bool,
}

/// A pluggable index that can answer [`SearchQuery`] filters faster
/// than the store's linear scan. [`MispApi::search`] routes through an
/// attached backend when one is set; the contract is strict
/// equivalence — for any store state and query, the backend must
/// return exactly the `(event id, version)` pairs
/// [`MispStore::search_linear`] returns, in the same id order. The
/// `cais-search` crate's incremental inverted index implements this
/// and is property-tested against that contract under churn.
///
/// [`MispApi::search`]: crate::MispApi::search
pub trait SearchBackend: Send + Sync {
    /// Answers `query` over the store's current contents.
    fn search_query(&self, store: &MispStore, query: &SearchQuery) -> Vec<VersionedEvent>;
}

/// An event handle plus the version it carried when read. The version
/// bumps on every [`MispStore::update`], so `(event.uuid, version)`
/// uniquely identifies serialized bytes of the event body — the export
/// cache keys on exactly that pair.
#[derive(Debug, Clone)]
pub struct VersionedEvent {
    /// Shared, immutable view of the event body.
    pub event: Arc<MispEvent>,
    /// Mutation counter at read time (0 for a freshly inserted event).
    pub version: u64,
}

/// A consistent, id-ordered view of the store taken under one read
/// lock. Holding a snapshot keeps the event bodies alive via `Arc`
/// without blocking writers; a writer that mutates after the snapshot
/// copies-on-write and leaves the snapshot untouched.
#[derive(Debug, Clone, Default)]
pub struct StoreSnapshot {
    generation: u64,
    events: Vec<VersionedEvent>,
}

impl StoreSnapshot {
    /// Store generation at snapshot time. Any later mutation makes the
    /// live generation diverge, which is how generation-guarded caches
    /// detect staleness.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Events ordered by store id.
    pub fn events(&self) -> &[VersionedEvent] {
        &self.events
    }

    /// Iterates the snapshot in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, VersionedEvent> {
        self.events.iter()
    }

    /// Number of events captured.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the snapshot captured no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<'a> IntoIterator for &'a StoreSnapshot {
    type Item = &'a VersionedEvent;
    type IntoIter = std::slice::Iter<'a, VersionedEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// A view's place in one store's change log: the store's
/// process-unique identity plus a log position. Opaque — only
/// [`MispStore::changes`] makes and reads cursors, so a cursor carried
/// over to another store is recognised as foreign, whatever that
/// store's generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeCursor {
    store: u64,
    position: usize,
}

/// What [`MispStore::changes`] reports since a cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeBatch {
    /// The cursor was `None` or from another store: `ids` holds every
    /// event id, and the view drops whatever it derived before.
    pub reset: bool,
    /// Event ids inserted or updated past the cursor, ascending and
    /// distinct.
    pub ids: Vec<u64>,
    /// Where the next call resumes. Read under the log lock before the
    /// view reads any event, so an event mutated while the view works
    /// through `ids` comes back in the next batch; re-deriving it is
    /// idempotent.
    pub cursor: ChangeCursor,
}

/// The append-only mutation log: one event id per insert/update, in
/// generation order, tagged with the owning store's identity.
#[derive(Debug)]
struct ChangeLog {
    store: u64,
    ids: RwLock<Vec<u64>>,
}

impl Default for ChangeLog {
    fn default() -> Self {
        static NEXT_STORE: AtomicU64 = AtomicU64::new(1);
        ChangeLog {
            store: NEXT_STORE.fetch_add(1, Ordering::Relaxed),
            ids: RwLock::default(),
        }
    }
}

/// An event plus its mutation version, as kept inside the store map.
#[derive(Debug)]
struct Stored {
    event: Arc<MispEvent>,
    version: u64,
}

/// A thread-safe, indexed store of MISP events.
///
/// Maintains secondary indexes by event UUID and by normalized attribute
/// value (the correlation index).
#[derive(Debug, Default)]
pub struct MispStore {
    events: RwLock<HashMap<u64, Stored>>,
    by_uuid: RwLock<HashMap<Uuid, u64>>,
    by_value: RwLock<HashMap<String, Vec<u64>>>,
    sightings: RwLock<HashMap<String, Vec<EventSighting>>>,
    next_id: AtomicU64,
    /// Appended inside the events write lock on every insert/update, so
    /// its length — the generation — pins exactly one store content.
    /// Eight bytes per mutation, never truncated.
    changes: ChangeLog,
    /// Serializes [`MispStore::merge_by_uuid`] calls so two concurrent
    /// deliveries of the same UUID (e.g. two federation edges pushing
    /// the same event) cannot both take the insert path and duplicate
    /// it. Plain inserts mint fresh v4 UUIDs and never contend.
    merge_lock: Mutex<()>,
    metrics: RwLock<Option<StoreMetrics>>,
    tracer: RwLock<Option<Tracer>>,
}

impl MispStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MispStore {
            next_id: AtomicU64::new(1),
            ..MispStore::default()
        }
    }

    /// Attaches telemetry: mutations record outcome-level counters
    /// (`misp_events_inserted_total`, `misp_attributes_written_total`,
    /// `misp_tags_written_total`, `misp_events_published_total`,
    /// `misp_sightings_total`) into the registry. Deltas, not call
    /// counts — an insert of a fully-built event and an insert-then-
    /// update sequence ending in the same event report identically.
    pub fn instrument(&self, registry: &Registry) {
        *self.metrics.write() = Some(StoreMetrics::new(registry));
    }

    /// Attaches a causal tracer: mutations record `store` spans
    /// (`store_insert`, `store_update`) and each insert links the
    /// event's UUID to its span, so downstream consumers (the share
    /// exporter, the TAXII server) chain their handling onto the same
    /// trace with [`Tracer::follow`].
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = Some(tracer.clone());
    }

    fn tracer(&self) -> Option<Tracer> {
        self.tracer.read().clone()
    }

    /// Inserts an event, assigning its store id. Attributes are
    /// validated; an invalid attribute rejects the whole event (MISP
    /// behaves the same on API add).
    ///
    /// # Errors
    ///
    /// Returns attribute-validation errors.
    pub fn insert(&self, event: MispEvent) -> Result<u64, MispError> {
        self.insert_with_trace(event, None)
    }

    /// [`MispStore::insert`] recorded as a child of `parent` when a
    /// tracer is attached — the pipeline passes its ingest span here so
    /// the store mutation lands inside the ingress trace. The event's
    /// UUID is linked to the insert span for downstream
    /// [`Tracer::follow`] chaining.
    ///
    /// # Errors
    ///
    /// Returns attribute-validation errors.
    pub fn insert_with_trace(
        &self,
        event: MispEvent,
        parent: Option<TraceContext>,
    ) -> Result<u64, MispError> {
        let tracer = self.tracer();
        let mut span = tracer
            .as_ref()
            .map(|t| t.child_of(parent, "store", "store_insert"));
        let link = tracer.as_ref().zip(span.as_ref().map(|s| s.context()));
        let id = self.insert_linked(event, link)?;
        if let Some(span) = span.as_mut() {
            span.field("event_id", id);
        }
        Ok(id)
    }

    /// Inserts `events` in order under one `store_insert` span, a child
    /// of `parent`, and links each event's UUID to it: the batch form of
    /// [`MispStore::insert_with_trace`] an ingestion round uses, so a
    /// traced round pays for one span instead of one per event. Stops
    /// at the first event that fails validation. Returns the ids
    /// stored, in order, and the error that stopped the batch.
    pub fn insert_all_with_trace(
        &self,
        events: Vec<MispEvent>,
        parent: Option<TraceContext>,
    ) -> (Vec<u64>, Option<MispError>) {
        let tracer = self.tracer();
        let mut span = tracer
            .as_ref()
            .map(|t| t.child_of(parent, "store", "store_insert"));
        let link = tracer.as_ref().zip(span.as_ref().map(|s| s.context()));
        let mut ids = Vec::with_capacity(events.len());
        let mut failure = None;
        for event in events {
            match self.insert_linked(event, link) {
                Ok(id) => ids.push(id),
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        if let Some(span) = span.as_mut() {
            span.field("events", ids.len());
        }
        (ids, failure)
    }

    /// Validates and stores one event, linking its UUID to the insert
    /// span's context when that context is sampled.
    fn insert_linked(
        &self,
        mut event: MispEvent,
        link: Option<(&Tracer, TraceContext)>,
    ) -> Result<u64, MispError> {
        for attribute in &event.attributes {
            attribute.validate()?;
        }
        if let Some((t, ctx)) = link.filter(|(_, ctx)| ctx.sampled) {
            t.link(&event.uuid.to_string(), ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        event.id = id;
        self.by_uuid.write().insert(event.uuid, id);
        {
            let mut by_value = self.by_value.write();
            for attribute in &event.attributes {
                by_value
                    .entry(attribute.correlation_key())
                    .or_default()
                    .push(id);
            }
        }
        if let Some(metrics) = self.metrics.read().as_ref() {
            metrics.events_inserted.inc();
            metrics
                .attributes_written
                .add(event.attributes.len() as u64);
            metrics.tags_written.add(event.tags.len() as u64);
            if event.published {
                metrics.events_published.inc();
            }
        }
        let mut events = self.events.write();
        events.insert(
            id,
            Stored {
                event: Arc::new(event),
                version: 0,
            },
        );
        self.changes.ids.write().push(id);
        Ok(id)
    }

    /// UUID-atomic insert-or-merge — the apply half of every wire
    /// delivery (MISP sync push, federation push).
    ///
    /// The caller passes the event copy exactly as it should land,
    /// with the *arrival* distribution already computed for this hop.
    /// If the UUID is unknown the copy is inserted as-is. If it is
    /// known, the copy is *joined* into the stored event:
    ///
    /// * attributes are unioned by attribute UUID,
    /// * event tags are unioned,
    /// * the distribution is raised to `max(stored, incoming)` — never
    ///   lowered, so a re-delivered copy can never downgrade the hop
    ///   decay a second time,
    /// * `published` is set if the copy is published (never cleared).
    ///
    /// The join is monotone, commutative and idempotent, so any set of
    /// deliveries converges to the same stored event regardless of
    /// order, duplication (replay, lost acks) or interleaving. A copy
    /// contributing nothing returns [`MergeOutcome::Unchanged`] without
    /// bumping the event version or store generation.
    ///
    /// Calls are serialized on an internal lock so two concurrent
    /// deliveries of one UUID cannot both insert.
    ///
    /// # Errors
    ///
    /// Returns attribute-validation errors; an invalid attribute
    /// rejects the whole copy.
    pub fn merge_by_uuid(
        &self,
        incoming: MispEvent,
        parent: Option<TraceContext>,
    ) -> Result<MergeOutcome, MispError> {
        for attribute in &incoming.attributes {
            attribute.validate()?;
        }
        let _guard = self.merge_lock.lock();
        let existing_id = self.by_uuid.read().get(&incoming.uuid).copied();
        let Some(id) = existing_id else {
            let id = self.insert_with_trace(incoming, parent)?;
            return Ok(MergeOutcome::Inserted(id));
        };
        let current = self
            .get_arc(id)
            .ok_or(MispError::EventNotFound { event_id: id })?;
        let mut new_attributes: Vec<MispAttribute> = incoming
            .attributes
            .iter()
            .filter(|a| !current.attributes.iter().any(|e| e.uuid == a.uuid))
            .cloned()
            .collect();
        let new_tags: Vec<crate::tag::Tag> = incoming
            .tags
            .iter()
            .filter(|t| !current.tags.contains(t))
            .cloned()
            .collect();
        let raise_distribution = incoming.distribution > current.distribution;
        let set_published = incoming.published && !current.published;
        if new_attributes.is_empty() && new_tags.is_empty() && !raise_distribution && !set_published
        {
            return Ok(MergeOutcome::Unchanged(id));
        }
        let distribution = incoming.distribution;
        self.update(id, move |event| {
            event.attributes.append(&mut new_attributes);
            for tag in new_tags {
                event.add_tag(tag);
            }
            if raise_distribution {
                event.distribution = distribution;
            }
            if set_published {
                event.published = true;
            }
        })?;
        Ok(MergeOutcome::Merged(id))
    }

    /// Fetches an event by id, cloning the body. Compatibility shim:
    /// prefer [`MispStore::get_arc`] / [`MispStore::with_event`] on
    /// read paths that do not need ownership.
    pub fn get(&self, id: u64) -> Option<MispEvent> {
        self.events.read().get(&id).map(|s| (*s.event).clone())
    }

    /// Fetches a shared handle to an event by id without cloning the
    /// body.
    pub fn get_arc(&self, id: u64) -> Option<Arc<MispEvent>> {
        self.events.read().get(&id).map(|s| Arc::clone(&s.event))
    }

    /// Fetches an event handle plus its current version.
    pub fn versioned(&self, id: u64) -> Option<VersionedEvent> {
        self.events.read().get(&id).map(|s| VersionedEvent {
            event: Arc::clone(&s.event),
            version: s.version,
        })
    }

    /// Current mutation version of an event (0 until first update).
    pub fn event_version(&self, id: u64) -> Option<u64> {
        self.events.read().get(&id).map(|s| s.version)
    }

    /// Store generation: the length of the change log, so it bumps on
    /// every insert/update. Caches keyed on a snapshot compare this to
    /// decide whether assembled output is still current.
    pub fn generation(&self) -> u64 {
        self.changes.ids.read().len() as u64
    }

    /// Takes a consistent, id-ordered snapshot of all events under one
    /// read lock. Event bodies are shared (`Arc`), not cloned.
    pub fn snapshot(&self) -> StoreSnapshot {
        let events = self.events.read();
        let generation = self.generation();
        let mut out: Vec<VersionedEvent> = events
            .values()
            .map(|s| VersionedEvent {
                event: Arc::clone(&s.event),
                version: s.version,
            })
            .collect();
        out.sort_by_key(|v| v.event.id);
        StoreSnapshot {
            generation,
            events: out,
        }
    }

    /// Visits every event in id order under one read lock, without
    /// cloning bodies or allocating handle vectors. The lock is held
    /// for the whole walk — keep `f` cheap and non-reentrant (calling
    /// back into the store deadlocks).
    pub fn for_each(&self, mut f: impl FnMut(&MispEvent)) {
        let events = self.events.read();
        let mut ids: Vec<u64> = events.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            f(&events[&id].event);
        }
    }

    /// Visits every event in id order along with its current mutation
    /// version, under one read lock — the zero-allocation walk behind
    /// incremental rescoring: a consumer that remembers the version it
    /// last processed per event can skip unchanged bodies without
    /// taking a [`MispStore::snapshot`] (which clones a handle vector).
    /// The same caveats as [`MispStore::for_each`] apply: keep `f`
    /// cheap and never call back into the store.
    pub fn for_each_versioned(&self, mut f: impl FnMut(&MispEvent, u64)) {
        let events = self.events.read();
        let mut ids: Vec<u64> = events.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let stored = &events[&id];
            f(&stored.event, stored.version);
        }
    }

    /// The change feed every derived view follows: the event ids to
    /// re-derive since `cursor`, ascending and distinct, in O(changed).
    /// A `None` cursor, or one from another store, gets
    /// [`ChangeBatch::reset`] and every event id instead. A view keeps
    /// the returned [`ChangeBatch::cursor`] for its next call.
    pub fn changes(&self, cursor: Option<ChangeCursor>) -> ChangeBatch {
        let resume = cursor.filter(|c| c.store == self.changes.store);
        let (ids, position) = match resume {
            Some(cursor) => {
                let log = self.changes.ids.read();
                let mut ids = log.get(cursor.position..).unwrap_or_default().to_vec();
                ids.sort_unstable();
                ids.dedup();
                (ids, log.len())
            }
            None => {
                // Writers lock events, then the log: same order here.
                let events = self.events.read();
                let position = self.changes.ids.read().len();
                let mut ids: Vec<u64> = events.keys().copied().collect();
                ids.sort_unstable();
                (ids, position)
            }
        };
        ChangeBatch {
            reset: resume.is_none(),
            ids,
            cursor: ChangeCursor {
                store: self.changes.store,
                position,
            },
        }
    }

    /// The id the next inserted event will receive. With inserts
    /// serialized by the caller, ids are predictable as
    /// `peek_next_id() + k` for the k-th insert, so a caller can take
    /// it before an ingestion round and walk exactly the round's new
    /// events afterwards.
    pub fn peek_next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Applies a read-only closure to an event in place, without
    /// cloning it out of the store (used to serialize bus
    /// announcements cheaply).
    pub fn with_event<R>(&self, id: u64, f: impl FnOnce(&MispEvent) -> R) -> Option<R> {
        self.events.read().get(&id).map(|s| f(&s.event))
    }

    /// Fetches an event by UUID.
    pub fn get_by_uuid(&self, uuid: &Uuid) -> Option<MispEvent> {
        let id = *self.by_uuid.read().get(uuid)?;
        self.get(id)
    }

    /// Whether an event with this UUID exists (no body clone).
    pub fn contains_uuid(&self, uuid: &Uuid) -> bool {
        self.by_uuid.read().contains_key(uuid)
    }

    /// Applies a closure to an event in place (used for enrichment).
    /// Copy-on-write: snapshots taken before the update keep the old
    /// body; the event's version and the store generation both bump.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids.
    pub fn update<F: FnOnce(&mut MispEvent)>(&self, id: u64, f: F) -> Result<(), MispError> {
        let mut events = self.events.write();
        let stored = events
            .get_mut(&id)
            .ok_or(MispError::EventNotFound { event_id: id })?;
        // Chained onto the event's linked trace (set at insert) so
        // enrichment/publish mutations stay in the same span tree.
        let mut span = self
            .tracer()
            .map(|t| t.follow(&stored.event.uuid.to_string(), "store", "store_update"));
        if let Some(span) = span.as_mut() {
            span.field("event_id", id);
        }
        let event = Arc::make_mut(&mut stored.event);
        let before: Vec<String> = event
            .attributes
            .iter()
            .map(MispAttribute::correlation_key)
            .collect();
        let tags_before = event.tags.len();
        let was_published = event.published;
        f(event);
        event.timestamp = Timestamp::now().max(event.timestamp);
        stored.version += 1;
        self.changes.ids.write().push(id);
        if let Some(metrics) = self.metrics.read().as_ref() {
            metrics
                .attributes_written
                .add(event.attributes.len().saturating_sub(before.len()) as u64);
            metrics
                .tags_written
                .add(event.tags.len().saturating_sub(tags_before) as u64);
            if event.published && !was_published {
                metrics.events_published.inc();
            }
        }
        // Refresh the value index for any attributes the closure added.
        let added: Vec<String> = event
            .attributes
            .iter()
            .map(MispAttribute::correlation_key)
            .filter(|key| !before.contains(key))
            .collect();
        drop(events);
        let mut by_value = self.by_value.write();
        for key in added {
            let ids = by_value.entry(key).or_default();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        Ok(())
    }

    /// Marks an event published.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] for unknown ids.
    pub fn publish(&self, id: u64) -> Result<MispEvent, MispError> {
        self.update(id, |event| event.published = true)?;
        Ok(self.get(id).expect("updated event exists"))
    }

    /// Event ids whose attributes carry exactly this normalized value.
    pub fn events_with_value(&self, value: &str) -> Vec<u64> {
        self.by_value
            .read()
            .get(&value.trim().to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Groups of events sharing a normalized attribute value, straight
    /// from the `by_value` correlation index — no event walk, no body
    /// clones. Ids per group are sorted and deduplicated; only groups
    /// with at least two distinct events are reported. Like
    /// [`MispStore::events_with_value`], entries reflect every value an
    /// event's attributes have ever carried.
    pub fn correlation_groups(&self) -> BTreeMap<String, Vec<u64>> {
        let by_value = self.by_value.read();
        let mut out = BTreeMap::new();
        for (value, ids) in by_value.iter() {
            if ids.len() < 2 {
                continue;
            }
            let mut ids = ids.clone();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() > 1 {
                out.insert(value.clone(), ids);
            }
        }
        out
    }

    /// Runs a filtered search by linear scan, returning shared
    /// (`Arc`) event handles plus their versions, ordered by event id.
    /// This is the reference evaluation the `cais-search` inverted
    /// index is property-tested against: the index must return exactly
    /// these `(id, version)` pairs for the compiled form of `query`.
    pub fn search_linear(&self, query: &SearchQuery) -> Vec<VersionedEvent> {
        let events = self.events.read();
        let mut out: Vec<VersionedEvent> = events
            .values()
            .filter(|s| {
                let event = &s.event;
                if query.published_only && !event.published {
                    return false;
                }
                if let Some(since) = query.since {
                    if event.date < since {
                        return false;
                    }
                }
                if let Some(tag) = &query.tag {
                    if !event.tags.iter().any(|t| t.name() == tag) {
                        return false;
                    }
                }
                if let Some(attr_type) = &query.attr_type {
                    if !event.attributes.iter().any(|a| a.attr_type == *attr_type) {
                        return false;
                    }
                }
                if let Some(needle) = &query.value_contains {
                    let needle = needle.to_ascii_lowercase();
                    if !event
                        .attributes
                        .iter()
                        .any(|a| a.value.to_ascii_lowercase().contains(&needle))
                    {
                        return false;
                    }
                }
                true
            })
            .map(|s| VersionedEvent {
                event: Arc::clone(&s.event),
                version: s.version,
            })
            .collect();
        out.sort_by_key(|v| v.event.id);
        out
    }

    /// Total stored events.
    pub fn len(&self) -> usize {
        self.events.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.events.read().is_empty()
    }

    /// Records a sighting of an attribute value against an event.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::EventNotFound`] when the event does not
    /// exist, and [`MispError::InvalidAttributeValue`] when no attribute
    /// of the event carries the value.
    pub fn add_sighting(
        &self,
        event_id: u64,
        value: &str,
        source: impl Into<String>,
        seen_at: Timestamp,
    ) -> Result<(), MispError> {
        let key = value.trim().to_ascii_lowercase();
        {
            let events = self.events.read();
            let stored = events
                .get(&event_id)
                .ok_or(MispError::EventNotFound { event_id })?;
            if !stored
                .event
                .attributes
                .iter()
                .any(|a| a.correlation_key() == key)
            {
                return Err(MispError::InvalidAttributeValue {
                    attr_type: "sighting".to_owned(),
                    value: value.to_owned(),
                });
            }
        }
        self.sightings
            .write()
            .entry(key)
            .or_default()
            .push(EventSighting {
                event_id,
                source: source.into(),
                seen_at,
            });
        if let Some(metrics) = self.metrics.read().as_ref() {
            metrics.sightings.inc();
        }
        Ok(())
    }

    /// All sightings of a value, oldest first.
    pub fn sightings_of(&self, value: &str) -> Vec<EventSighting> {
        let mut out = self
            .sightings
            .read()
            .get(&value.trim().to_ascii_lowercase())
            .cloned()
            .unwrap_or_default();
        out.sort_by_key(|s| s.seen_at);
        out
    }

    /// Number of sightings of a value.
    pub fn sighting_count(&self, value: &str) -> usize {
        self.sightings
            .read()
            .get(&value.trim().to_ascii_lowercase())
            .map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeCategory;
    use crate::tag::Tag;

    fn event_with(value: &str) -> MispEvent {
        let mut event = MispEvent::new(format!("event for {value}"));
        event.add_attribute(MispAttribute::new(
            "domain",
            AttributeCategory::NetworkActivity,
            value,
        ));
        event
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let store = MispStore::new();
        let a = store.insert(event_with("a.example")).unwrap();
        let b = store.insert(event_with("b.example")).unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn insert_rejects_invalid_attributes() {
        let store = MispStore::new();
        let mut event = MispEvent::new("bad");
        event.add_attribute(MispAttribute::new(
            "ip-dst",
            AttributeCategory::NetworkActivity,
            "not-an-ip",
        ));
        assert!(store.insert(event).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn uuid_lookup() {
        let store = MispStore::new();
        let event = event_with("a.example");
        let uuid = event.uuid;
        let id = store.insert(event).unwrap();
        assert_eq!(store.get_by_uuid(&uuid).unwrap().id, id);
        assert!(store.contains_uuid(&uuid));
        assert!(store.get_by_uuid(&Uuid::new_v4()).is_none());
    }

    #[test]
    fn value_index_and_update() {
        let store = MispStore::new();
        let id = store.insert(event_with("shared.example")).unwrap();
        assert_eq!(store.events_with_value("SHARED.example"), vec![id]);
        // Add another attribute via update; the index must pick it up.
        store
            .update(id, |event| {
                event.add_attribute(MispAttribute::new(
                    "ip-dst",
                    AttributeCategory::NetworkActivity,
                    "203.0.113.9",
                ));
            })
            .unwrap();
        assert_eq!(store.events_with_value("203.0.113.9"), vec![id]);
    }

    #[test]
    fn update_unknown_event_errors() {
        let store = MispStore::new();
        assert!(matches!(
            store.update(42, |_| {}),
            Err(MispError::EventNotFound { event_id: 42 })
        ));
    }

    #[test]
    fn publish_flags_event() {
        let store = MispStore::new();
        let id = store.insert(event_with("a.example")).unwrap();
        assert!(!store.get(id).unwrap().published);
        let published = store.publish(id).unwrap();
        assert!(published.published);
    }

    #[test]
    fn versions_and_generation_track_mutations() {
        let store = MispStore::new();
        assert_eq!(store.generation(), 0);
        let a = store.insert(event_with("a.example")).unwrap();
        let b = store.insert(event_with("b.example")).unwrap();
        assert_eq!(store.generation(), 2);
        assert_eq!(store.event_version(a), Some(0));
        assert_eq!(store.event_version(b), Some(0));

        store.publish(a).unwrap();
        assert_eq!(store.event_version(a), Some(1));
        assert_eq!(store.event_version(b), Some(0));
        assert_eq!(store.generation(), 3);
        assert_eq!(store.event_version(999), None);
    }

    #[test]
    fn snapshot_is_stable_under_copy_on_write() {
        let store = MispStore::new();
        let id = store.insert(event_with("a.example")).unwrap();
        let before = store.snapshot();
        assert_eq!(before.len(), 1);
        assert!(!before.is_empty());
        assert_eq!(before.generation(), store.generation());

        store
            .update(id, |event| event.info = "mutated".into())
            .unwrap();

        // The snapshot still sees the pre-update body; the live store
        // sees the new one and a newer generation.
        assert_eq!(before.events()[0].event.info, "event for a.example");
        assert_eq!(store.get(id).unwrap().info, "mutated");
        assert!(store.generation() > before.generation());

        let after = store.snapshot();
        assert_eq!(after.events()[0].version, before.events()[0].version + 1);
    }

    #[test]
    fn snapshot_and_for_each_are_id_ordered() {
        let store = MispStore::new();
        for value in ["c.example", "a.example", "b.example"] {
            store.insert(event_with(value)).unwrap();
        }
        let snapshot = store.snapshot();
        let ids: Vec<u64> = snapshot.iter().map(|v| v.event.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);

        let mut walked = Vec::new();
        store.for_each(|event| walked.push(event.id));
        assert_eq!(walked, ids);

        let via_into_iter: Vec<u64> = (&snapshot).into_iter().map(|v| v.event.id).collect();
        assert_eq!(via_into_iter, ids);
    }

    #[test]
    fn for_each_versioned_reports_current_versions() {
        let store = MispStore::new();
        let a = store.insert(event_with("a.example")).unwrap();
        let b = store.insert(event_with("b.example")).unwrap();
        store.publish(b).unwrap();

        let mut walked = Vec::new();
        store.for_each_versioned(|event, version| walked.push((event.id, version)));
        assert_eq!(walked, vec![(a, 0), (b, 1)]);
    }

    #[test]
    fn get_arc_shares_the_stored_body() {
        let store = MispStore::new();
        let id = store.insert(event_with("a.example")).unwrap();
        let one = store.get_arc(id).unwrap();
        let two = store.get_arc(id).unwrap();
        assert!(Arc::ptr_eq(&one, &two));
        let versioned = store.versioned(id).unwrap();
        assert!(Arc::ptr_eq(&one, &versioned.event));
        assert_eq!(versioned.version, 0);
    }

    #[test]
    fn correlation_groups_come_from_the_index() {
        let store = MispStore::new();
        let a = store.insert(event_with("shared.example")).unwrap();
        let b = store.insert(event_with("SHARED.example")).unwrap();
        store.insert(event_with("lonely.example")).unwrap();
        let groups = store.correlation_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups["shared.example"], vec![a, b]);
    }

    #[test]
    fn search_filters_compose() {
        let store = MispStore::new();
        let mut tagged = event_with("tagged.example");
        tagged.add_tag(Tag::tlp_red());
        store.insert(tagged).unwrap();
        let plain_id = store.insert(event_with("plain.example")).unwrap();
        store.publish(plain_id).unwrap();

        let by_tag = store.search_linear(&SearchQuery {
            tag: Some("tlp:red".into()),
            ..SearchQuery::default()
        });
        assert_eq!(by_tag.len(), 1);
        assert!(by_tag[0].event.info.contains("tagged"));

        let published = store.search_linear(&SearchQuery {
            published_only: true,
            ..SearchQuery::default()
        });
        assert_eq!(published.len(), 1);
        assert_eq!(published[0].event.id, plain_id);
        // publish() is an update: the version reflects it.
        assert_eq!(published[0].version, 1);

        let by_value = store.search_linear(&SearchQuery {
            value_contains: Some("PLAIN".into()),
            ..SearchQuery::default()
        });
        assert_eq!(by_value.len(), 1);

        let none = store.search_linear(&SearchQuery {
            attr_type: Some("sha256".into()),
            ..SearchQuery::default()
        });
        assert!(none.is_empty());
    }

    #[test]
    fn instrumented_store_counts_outcomes_not_calls() {
        use crate::tag::Tag;
        use cais_telemetry::Registry;

        // Path A: insert a bare event, then add the score attribute,
        // a tag and the published flag via updates.
        let registry_a = Registry::new();
        let store_a = MispStore::new();
        store_a.instrument(&registry_a);
        let id = store_a.insert(event_with("a.example")).unwrap();
        store_a
            .update(id, |event| {
                event.add_attribute(MispAttribute::new(
                    "ip-dst",
                    AttributeCategory::NetworkActivity,
                    "203.0.113.9",
                ));
                event.add_tag(Tag::tlp_red());
            })
            .unwrap();
        store_a.publish(id).unwrap();

        // Path B: insert the fully-built event once.
        let registry_b = Registry::new();
        let store_b = MispStore::new();
        store_b.instrument(&registry_b);
        let mut event = event_with("a.example");
        event.add_attribute(MispAttribute::new(
            "ip-dst",
            AttributeCategory::NetworkActivity,
            "203.0.113.9",
        ));
        event.add_tag(Tag::tlp_red());
        event.published = true;
        store_b.insert(event).unwrap();

        assert_eq!(
            registry_a.snapshot().counters,
            registry_b.snapshot().counters
        );
        let counters = registry_a.snapshot().counters;
        assert_eq!(counters["misp_events_inserted_total"], 1);
        assert_eq!(counters["misp_attributes_written_total"], 2);
        assert_eq!(counters["misp_tags_written_total"], 1);
        assert_eq!(counters["misp_events_published_total"], 1);
    }

    #[test]
    fn traced_mutations_share_one_span_tree() {
        use cais_telemetry::Tracer;

        let tracer = Tracer::new();
        let store = MispStore::new();
        store.set_tracer(&tracer);

        let event = event_with("a.example");
        let uuid = event.uuid;
        let parent = tracer.root("pipeline", "ingest_round");
        let parent_ctx = parent.context();
        let id = store.insert_with_trace(event, Some(parent_ctx)).unwrap();
        drop(parent);
        store.publish(id).unwrap();

        let spans = tracer.snapshot_subsystem("store");
        let insert = spans.iter().find(|s| s.name == "store_insert").unwrap();
        let update = spans.iter().find(|s| s.name == "store_update").unwrap();
        assert_eq!(insert.parent_id, parent_ctx.span_id);
        assert_eq!(insert.trace_id, parent_ctx.trace_id);
        assert_eq!(
            update.parent_id, insert.span_id,
            "publish chains via the uuid link"
        );
        assert_eq!(update.trace_id, parent_ctx.trace_id);
        // The link now points at the update span for the next consumer.
        assert_eq!(
            tracer.linked(&uuid.to_string()).unwrap().span_id,
            update.span_id
        );
    }

    #[test]
    fn concurrent_inserts_get_unique_ids() {
        let store = Arc::new(MispStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    store
                        .insert(event_with(&format!("t{t}-{i}.example")))
                        .unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(store.len(), 200);
        let ids: std::collections::HashSet<u64> =
            store.snapshot().iter().map(|v| v.event.id).collect();
        assert_eq!(ids.len(), 200);
        assert_eq!(store.generation(), 200);
    }
}

#[cfg(test)]
mod sighting_tests {
    use super::*;
    use crate::attribute::AttributeCategory;

    fn event_with(value: &str) -> MispEvent {
        let mut event = MispEvent::new("s");
        event.add_attribute(MispAttribute::new(
            "domain",
            AttributeCategory::NetworkActivity,
            value,
        ));
        event
    }

    #[test]
    fn sightings_accumulate_and_sort() {
        let store = MispStore::new();
        let id = store.insert(event_with("c2.threat.ru")).unwrap();
        store
            .add_sighting(
                id,
                "C2.THREAT.RU",
                "suricata",
                Timestamp::from_unix_secs(200),
            )
            .unwrap();
        store
            .add_sighting(
                id,
                "c2.threat.ru",
                "analyst",
                Timestamp::from_unix_secs(100),
            )
            .unwrap();
        assert_eq!(store.sighting_count("c2.threat.ru"), 2);
        let all = store.sightings_of("c2.threat.ru");
        assert_eq!(all[0].source, "analyst");
        assert_eq!(all[1].source, "suricata");
    }

    #[test]
    fn sighting_requires_matching_attribute() {
        let store = MispStore::new();
        let id = store.insert(event_with("c2.threat.ru")).unwrap();
        assert!(store
            .add_sighting(id, "other.value.ru", "x", Timestamp::EPOCH)
            .is_err());
        assert!(store
            .add_sighting(999, "c2.threat.ru", "x", Timestamp::EPOCH)
            .is_err());
        assert_eq!(store.sighting_count("other.value.ru"), 0);
    }
}
