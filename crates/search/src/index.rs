//! The incremental inverted index: interned tokens → sorted postings
//! of dense slot ids, maintained off the store's change feed.
//!
//! Structure, generalized from `cais_infra::index::PatternIndex`'s
//! interned-token postings + bitset matcher:
//!
//! - Every event occupies one dense **slot** (a `u32`). Events are
//!   never removed from the store (the decay sweep only unpublishes),
//!   and ids are minted monotonically, so slots stay ordered by event
//!   id forever — query results read off a bitset in ascending slot
//!   order are already in id order, no sort needed.
//! - Each indexable token (`t␁ip-dst`, `g␁tlp:amber`, `o␁acme`,
//!   `c␁network activity`, `v␁evil`) is interned to a `u32` and owns a
//!   [`Posting`]: a sorted slot vector while rare, flipped to a bitset
//!   once it crosses [`DENSE_POSTING_THRESHOLD`] — hot tokens (types,
//!   orgs, TLP tags, common value sub-tokens appear on a constant
//!   fraction of the store) would otherwise cost O(posting) memmoves
//!   per churned event and O(posting) loops per query. A [`Query`]
//!   term is one postings lookup materialized to a [`SlotBitset`];
//!   `AND`/`OR`/`NOT` become bitset intersection/union/subtraction.
//! - Timestamps and decayed scores live in dense columns plus sorted
//!   `(value, slot)` permutations (re-sorted lazily, only on syncs
//!   that moved a date or score), so a range predicate is one binary
//!   search plus O(matches) bit sets, never a full column walk.
//!
//! Incrementality rides the store's change feed exactly like the decay
//! engine's rescorer: [`SearchIndex::sync`] keeps the cursor of its
//! last pass and asks [`MispStore::changes`] for just the events
//! mutated since — each is re-tokenized in place (old postings edits
//! are `O(tokens)` bit flips for dense tokens, `O(log posting)` inserts
//! for sparse ones), so churn costs O(changed events). A reset (first
//! sync, or a cursor from another store) clears the index and the same
//! loop rebuilds it from every event.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cais_common::{SlotBitset, Timestamp};
use cais_misp::store::{ChangeCursor, MispStore, SearchBackend, SearchQuery, VersionedEvent};
use cais_misp::MispEvent;
use cais_telemetry::{Counter, Gauge, Histogram, Registry};
use parking_lot::{Mutex, RwLock};

use crate::query::{decayed_score, normalize, sub_tokens, Cmp, Field, ParseError, Query};

/// Token-key prefixes, one byte each, joined to the token text with a
/// `\u{1}` separator so token namespaces can never collide with value
/// text.
const SEP: char = '\u{1}';

fn type_key(attr_type: &str) -> String {
    format!("t{SEP}{attr_type}")
}

fn tag_key(name: &str) -> String {
    format!("g{SEP}{name}")
}

fn org_key(org: &str) -> String {
    format!("o{SEP}{}", org.to_ascii_lowercase())
}

fn category_key(name: &str) -> String {
    format!("c{SEP}{}", name.to_ascii_lowercase())
}

fn value_key(token: &str) -> String {
    format!("v{SEP}{token}")
}

/// Sparse→dense flip point for a posting. Below it a sorted id vector
/// is smaller and iterates faster; above it the bitset wins on every
/// axis that matters under churn: O(1) add/remove instead of a
/// memmove, and a block memcpy instead of a per-id loop at query time.
const DENSE_POSTING_THRESHOLD: usize = 2048;

/// One token's slot set, adaptively represented.
#[derive(Debug)]
enum Posting {
    /// Sorted slot ids — rare tokens.
    Sparse(Vec<u32>),
    /// One bit per slot — hot tokens. Never demoted: a token that was
    /// ever hot is likely to get hot again, and a sparse-looking dense
    /// posting costs only its (shared-size) block vector.
    Dense(SlotBitset),
}

impl Default for Posting {
    fn default() -> Self {
        Posting::Sparse(Vec::new())
    }
}

impl Posting {
    fn add(&mut self, slot: u32) {
        match self {
            Posting::Sparse(ids) => {
                match ids.last() {
                    // Out-of-order adds only happen on re-tokenization;
                    // appends (the common case) stay a plain push.
                    Some(&last) if last >= slot => {
                        if let Err(at) = ids.binary_search(&slot) {
                            ids.insert(at, slot);
                        }
                    }
                    _ => ids.push(slot),
                }
                if ids.len() > DENSE_POSTING_THRESHOLD {
                    let mut bits = SlotBitset::new();
                    for &id in ids.iter() {
                        bits.set(id);
                    }
                    *self = Posting::Dense(bits);
                }
            }
            Posting::Dense(bits) => bits.set(slot),
        }
    }

    fn remove(&mut self, slot: u32) {
        match self {
            Posting::Sparse(ids) => {
                if let Ok(at) = ids.binary_search(&slot) {
                    ids.remove(at);
                }
            }
            Posting::Dense(bits) => bits.clear(slot),
        }
    }

    fn to_bitset(&self) -> SlotBitset {
        match self {
            Posting::Sparse(ids) => {
                let mut bits = SlotBitset::new();
                for &id in ids {
                    bits.set(id);
                }
                bits
            }
            Posting::Dense(bits) => bits.clone(),
        }
    }
}

/// One indexed event.
#[derive(Debug)]
struct Slot {
    event_id: u64,
    version: u64,
    event: Arc<MispEvent>,
    /// Interned token ids this event currently posts under, sorted and
    /// deduplicated — the reverse mapping that makes re-tokenizing an
    /// updated event O(its own tokens) instead of O(index).
    tokens: Vec<u32>,
}

#[derive(Debug, Default)]
struct IndexState {
    /// Where the last sync left the store's change feed; `None`
    /// before the first.
    cursor: Option<ChangeCursor>,
    slots: Vec<Slot>,
    by_id: HashMap<u64, u32>,
    /// Token text → interned id; postings are indexed by that id.
    tokens: HashMap<String, u32>,
    /// Interned token id → that token's slot set.
    postings: Vec<Posting>,
    /// Dense column of event dates, slot-indexed.
    dates: Vec<Timestamp>,
    /// Dense column of decayed threat scores, slot-indexed (`None` =
    /// unscored, never matches a range).
    scores: Vec<Option<f64>>,
    /// `dates` as a sorted `(date, slot)` permutation — range queries
    /// binary-search it and touch only matching slots.
    dates_sorted: Vec<(Timestamp, u32)>,
    /// Scored, non-NaN slots as a sorted `(score, slot)` permutation.
    /// NaN never satisfies any comparison, so dropping it here is
    /// exactly the linear oracle's behaviour.
    scores_sorted: Vec<(f64, u32)>,
    /// Set when a sync moved any date or score; the sorted
    /// permutations are rebuilt once at the end of that sync.
    ranges_dirty: bool,
    published: SlotBitset,
    universe: SlotBitset,
}

/// What one [`SearchIndex::sync`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncSummary {
    /// The change feed reset and the index was rebuilt from every
    /// event.
    pub rebuilt: bool,
    /// Events newly appended to the index.
    pub appended: usize,
    /// Existing events re-tokenized because their version changed.
    pub reindexed: usize,
    /// Change-feed ids skipped because the indexed version was already
    /// current.
    pub skipped: usize,
}

struct SearchMetrics {
    queries: Counter,
    hits: Counter,
    parse_errors: Counter,
    syncs: Counter,
    rebuilds: Counter,
    query_nanos: Histogram,
    index_events: Gauge,
    index_tokens: Gauge,
}

impl SearchMetrics {
    fn new(registry: &Registry) -> Self {
        SearchMetrics {
            queries: registry.counter("search_queries_total"),
            hits: registry.counter("search_hits_total"),
            parse_errors: registry.counter("search_parse_errors_total"),
            syncs: registry.counter("search_index_syncs_total"),
            rebuilds: registry.counter("search_index_rebuilds_total"),
            query_nanos: registry.histogram("search_query_nanos"),
            index_events: registry.gauge("search_index_events"),
            index_tokens: registry.gauge("search_index_tokens"),
        }
    }
}

/// The incremental inverted index over a [`MispStore`]'s events.
///
/// Thread-safe: queries and syncs serialize on an internal lock (the
/// store itself is never locked while holding it for long — syncs read
/// changed events one at a time). Implements [`SearchBackend`], so an
/// `Arc<SearchIndex>` plugs straight into `MispApi::set_search_backend`.
///
/// # Examples
///
/// ```
/// use cais_misp::store::{MispStore, SearchQuery};
/// use cais_misp::{AttributeCategory, MispAttribute, MispEvent};
/// use cais_search::{Query, SearchIndex};
///
/// let store = MispStore::new();
/// let mut event = MispEvent::new("c2 infrastructure");
/// event.add_attribute(MispAttribute::new(
///     "domain",
///     AttributeCategory::NetworkActivity,
///     "c2.evil.example",
/// ));
/// store.insert(event)?;
///
/// let index = SearchIndex::new();
/// index.sync(&store);
/// let query = Query::parse("type:domain AND value:evil").unwrap();
/// let hits = index.search(&query);
/// assert_eq!(hits.len(), 1);
/// // The linear scan agrees, always.
/// assert_eq!(
///     store.search_linear(&SearchQuery::default()).len(),
///     index.search(&Query::All).len(),
/// );
/// # Ok::<(), cais_misp::MispError>(())
/// ```
#[derive(Default)]
pub struct SearchIndex {
    state: Mutex<IndexState>,
    metrics: RwLock<Option<SearchMetrics>>,
}

impl SearchIndex {
    /// Creates an empty index; the first [`SearchIndex::sync`] fills it.
    pub fn new() -> Self {
        SearchIndex::default()
    }

    /// Attaches telemetry: `search_queries_total`, `search_hits_total`,
    /// `search_parse_errors_total`, `search_index_syncs_total`,
    /// `search_index_rebuilds_total`, the `search_query_nanos`
    /// latency histogram, and `search_index_events` /
    /// `search_index_tokens` size gauges.
    pub fn instrument(&self, registry: &Registry) {
        *self.metrics.write() = Some(SearchMetrics::new(registry));
    }

    /// Brings the index up to date with the store's change feed:
    /// O(changed events) per pass, and a rebuild from every event on a
    /// reset (first sync, or a sync against another store than the
    /// last).
    pub fn sync(&self, store: &MispStore) -> SyncSummary {
        let mut state = self.state.lock();
        let batch = store.changes(state.cursor);
        if batch.reset {
            *state = IndexState::default();
        }
        let mut summary = SyncSummary {
            rebuilt: batch.reset,
            ..SyncSummary::default()
        };
        for id in batch.ids {
            if let Some(versioned) = store.versioned(id) {
                Self::upsert(&mut state, versioned, &mut summary);
            }
        }
        state.cursor = Some(batch.cursor);
        Self::refresh_ranges(&mut state);
        if let Some(metrics) = self.metrics.read().as_ref() {
            metrics.syncs.inc();
            if summary.rebuilt {
                metrics.rebuilds.inc();
            }
            metrics.index_events.set(state.slots.len() as i64);
            metrics.index_tokens.set(state.tokens.len() as i64);
        }
        summary
    }

    /// Drops everything and re-syncs from every event — the baseline
    /// the `search_json` bench compares incremental maintenance
    /// against.
    pub fn rebuild(&self, store: &MispStore) -> SyncSummary {
        self.state.lock().cursor = None;
        self.sync(store)
    }

    /// Answers a typed query over the index's current contents,
    /// returning shared event handles ordered by event id. Call
    /// [`SearchIndex::sync`] first (or use
    /// [`SearchIndex::search_synced`]) to include the latest writes.
    pub fn search(&self, query: &Query) -> Vec<VersionedEvent> {
        let started = Instant::now();
        let state = self.state.lock();
        let matched = Self::eval(&state, query);
        let out: Vec<VersionedEvent> = matched
            .ones()
            .map(|slot| {
                let slot = &state.slots[slot as usize];
                VersionedEvent {
                    event: Arc::clone(&slot.event),
                    version: slot.version,
                }
            })
            .collect();
        drop(state);
        if let Some(metrics) = self.metrics.read().as_ref() {
            metrics.queries.inc();
            metrics.hits.add(out.len() as u64);
            metrics
                .query_nanos
                .record(started.elapsed().as_nanos() as u64);
        }
        out
    }

    /// [`SearchIndex::sync`] + [`SearchIndex::search`]: the always-fresh
    /// read path serving layers use.
    pub fn search_synced(&self, store: &MispStore, query: &Query) -> Vec<VersionedEvent> {
        self.sync(store);
        self.search(query)
    }

    /// Parses and answers a query string over the current contents.
    ///
    /// # Errors
    ///
    /// Returns the [`ParseError`] (counted in
    /// `search_parse_errors_total`) for malformed input.
    pub fn search_str(&self, input: &str) -> Result<Vec<VersionedEvent>, ParseError> {
        match Query::parse(input) {
            Ok(query) => Ok(self.search(&query)),
            Err(error) => {
                if let Some(metrics) = self.metrics.read().as_ref() {
                    metrics.parse_errors.inc();
                }
                Err(error)
            }
        }
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.state.lock().slots.len()
    }

    /// Whether the index holds no events.
    pub fn is_empty(&self) -> bool {
        self.state.lock().slots.is_empty()
    }

    /// Number of distinct interned tokens.
    pub fn token_count(&self) -> usize {
        self.state.lock().tokens.len()
    }

    /// The tokens one event body posts under, sorted and deduplicated
    /// by interned id.
    fn tokenize(state: &mut IndexState, event: &MispEvent) -> Vec<u32> {
        let mut keys: Vec<String> = vec![org_key(&event.org)];
        for tag in &event.tags {
            keys.push(tag_key(tag.name()));
        }
        for attr in &event.attributes {
            keys.push(type_key(&attr.attr_type));
            keys.push(category_key(attr.category.name()));
            let normalized = normalize(&attr.value);
            if !normalized.is_empty() {
                for token in sub_tokens(&normalized) {
                    keys.push(value_key(token));
                }
                keys.push(value_key(&normalized));
            }
        }
        let mut ids: Vec<u32> = keys
            .into_iter()
            .map(|key| {
                if let Some(&id) = state.tokens.get(&key) {
                    return id;
                }
                let id = state.postings.len() as u32;
                state.tokens.insert(key, id);
                state.postings.push(Posting::default());
                id
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Rebuilds the sorted range permutations if this sync dirtied
    /// them. Cheap relative to what dirtied them (one O(n log n) sort
    /// per sync that moved a date or score, and info-only churn — the
    /// common case — never dirties), and it keeps every query-time
    /// range predicate at a binary search.
    fn refresh_ranges(state: &mut IndexState) {
        if !state.ranges_dirty {
            return;
        }
        state.dates_sorted = state
            .dates
            .iter()
            .enumerate()
            .map(|(slot, &date)| (date, slot as u32))
            .collect();
        state.dates_sorted.sort_unstable();
        state.scores_sorted = state
            .scores
            .iter()
            .enumerate()
            .filter_map(|(slot, score)| score.filter(|s| !s.is_nan()).map(|s| (s, slot as u32)))
            .collect();
        state
            .scores_sorted
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        state.ranges_dirty = false;
    }

    /// Indexes one versioned event: appends a new slot, or re-tokenizes
    /// the existing one when its version moved.
    fn upsert(state: &mut IndexState, versioned: VersionedEvent, summary: &mut SyncSummary) {
        let event_id = versioned.event.id;
        match state.by_id.get(&event_id).copied() {
            Some(slot_id) => {
                if state.slots[slot_id as usize].version == versioned.version {
                    summary.skipped += 1;
                    return;
                }
                let old_tokens = std::mem::take(&mut state.slots[slot_id as usize].tokens);
                for token in old_tokens {
                    state.postings[token as usize].remove(slot_id);
                }
                let tokens = Self::tokenize(state, &versioned.event);
                for &token in &tokens {
                    state.postings[token as usize].add(slot_id);
                }
                let date = versioned.event.date;
                if state.dates[slot_id as usize] != date {
                    state.dates[slot_id as usize] = date;
                    state.ranges_dirty = true;
                }
                let score = decayed_score(&versioned.event);
                if state.scores[slot_id as usize] != score {
                    state.scores[slot_id as usize] = score;
                    state.ranges_dirty = true;
                }
                if versioned.event.published {
                    state.published.set(slot_id);
                } else {
                    state.published.clear(slot_id);
                }
                let slot = &mut state.slots[slot_id as usize];
                slot.version = versioned.version;
                slot.tokens = tokens;
                slot.event = versioned.event;
                summary.reindexed += 1;
            }
            None => {
                let slot_id = state.slots.len() as u32;
                // Ids are minted monotonically and events are never
                // removed, so appends arrive in ascending id order and
                // slot order == id order — what keeps results sorted
                // for free.
                debug_assert!(state
                    .slots
                    .last()
                    .is_none_or(|last| last.event_id < event_id));
                let tokens = Self::tokenize(state, &versioned.event);
                for &token in &tokens {
                    // A fresh slot id is larger than every posted one:
                    // sparse adds stay a plain push.
                    state.postings[token as usize].add(slot_id);
                }
                state.dates.push(versioned.event.date);
                state.scores.push(decayed_score(&versioned.event));
                state.ranges_dirty = true;
                if versioned.event.published {
                    state.published.set(slot_id);
                }
                state.universe.set(slot_id);
                state.by_id.insert(event_id, slot_id);
                state.slots.push(Slot {
                    event_id,
                    version: versioned.version,
                    event: versioned.event,
                    tokens,
                });
                summary.appended += 1;
            }
        }
    }

    /// Compiles a query to a bitset over slots, bottom-up.
    fn eval(state: &IndexState, query: &Query) -> SlotBitset {
        match query {
            Query::All => state.universe.clone(),
            Query::Term { field, value } => {
                let key = match field {
                    Field::Type => type_key(value),
                    Field::Category => category_key(value),
                    Field::Tag => tag_key(value),
                    Field::Org => org_key(value),
                    Field::Value => {
                        let normalized = normalize(value);
                        if normalized.is_empty() {
                            // The reference semantics: an empty value
                            // term matches nothing.
                            return SlotBitset::new();
                        }
                        value_key(&normalized)
                    }
                };
                match state.tokens.get(&key) {
                    Some(&token) => state.postings[token as usize].to_bitset(),
                    None => SlotBitset::new(),
                }
            }
            Query::Contains(needle) => {
                // The one predicate postings cannot answer: scan, like
                // the linear baseline (identical semantics by
                // construction).
                let needle = needle.to_ascii_lowercase();
                let mut out = SlotBitset::new();
                for (slot_id, slot) in state.slots.iter().enumerate() {
                    if slot
                        .event
                        .attributes
                        .iter()
                        .any(|a| a.value.to_ascii_lowercase().contains(&needle))
                    {
                        out.set(slot_id as u32);
                    }
                }
                out
            }
            Query::Published(published) => {
                if *published {
                    state.published.clone()
                } else {
                    let mut out = state.universe.clone();
                    out.subtract(&state.published);
                    out
                }
            }
            Query::DateRange { cmp, instant } => {
                let sorted = &state.dates_sorted;
                let matching = match cmp {
                    Cmp::Ge => sorted.partition_point(|&(d, _)| d < *instant)..sorted.len(),
                    Cmp::Gt => sorted.partition_point(|&(d, _)| d <= *instant)..sorted.len(),
                    Cmp::Lt => 0..sorted.partition_point(|&(d, _)| d < *instant),
                    Cmp::Le => 0..sorted.partition_point(|&(d, _)| d <= *instant),
                };
                let mut out = SlotBitset::new();
                for &(_, slot) in &sorted[matching] {
                    out.set(slot);
                }
                out
            }
            Query::ScoreRange { cmp, score } => {
                if score.is_nan() {
                    // IEEE: nothing compares against NaN. (Unreachable
                    // through the parser, which only admits finite
                    // operands, but the AST is public.)
                    return SlotBitset::new();
                }
                let sorted = &state.scores_sorted;
                let matching = match cmp {
                    Cmp::Ge => sorted.partition_point(|&(s, _)| s < *score)..sorted.len(),
                    Cmp::Gt => sorted.partition_point(|&(s, _)| s <= *score)..sorted.len(),
                    Cmp::Lt => 0..sorted.partition_point(|&(s, _)| s < *score),
                    Cmp::Le => 0..sorted.partition_point(|&(s, _)| s <= *score),
                };
                let mut out = SlotBitset::new();
                for &(_, slot) in &sorted[matching] {
                    out.set(slot);
                }
                out
            }
            Query::Not(inner) => {
                let mut out = state.universe.clone();
                out.subtract(&Self::eval(state, inner));
                out
            }
            Query::And(items) => {
                let mut iter = items.iter();
                let mut out = match iter.next() {
                    Some(first) => Self::eval(state, first),
                    // all() over an empty conjunction is true.
                    None => return state.universe.clone(),
                };
                for item in iter {
                    if out.is_empty() {
                        break;
                    }
                    out.intersect_with(&Self::eval(state, item));
                }
                out
            }
            Query::Or(items) => {
                let mut out = SlotBitset::new();
                for item in items {
                    out.union_with(&Self::eval(state, item));
                }
                out
            }
        }
    }
}

impl std::fmt::Debug for SearchIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SearchIndex")
            .field("events", &state.slots.len())
            .field("tokens", &state.tokens.len())
            .field("cursor", &state.cursor)
            .finish()
    }
}

impl SearchBackend for SearchIndex {
    /// The [`MispApi::search`] seam: sync off the change feed, compile
    /// the flat filter, answer from postings. Equivalent to
    /// `store.search_linear(query)` by the [`SearchBackend`] contract.
    ///
    /// [`MispApi::search`]: cais_misp::MispApi::search
    fn search_query(&self, store: &MispStore, query: &SearchQuery) -> Vec<VersionedEvent> {
        self.sync(store);
        self.search(&Query::from(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_misp::{AttributeCategory, MispAttribute, MispEvent, Tag};

    fn event(info: &str, attr_type: &str, value: &str) -> MispEvent {
        let mut e = MispEvent::new(info);
        e.add_attribute(MispAttribute::new(
            attr_type,
            AttributeCategory::NetworkActivity,
            value,
        ));
        e
    }

    fn ids(hits: &[VersionedEvent]) -> Vec<u64> {
        hits.iter().map(|v| v.event.id).collect()
    }

    #[test]
    fn sync_appends_then_reindexes_incrementally() {
        let store = MispStore::new();
        let a = store
            .insert(event("a", "domain", "c2.evil.example"))
            .unwrap();
        let b = store.insert(event("b", "ip-dst", "203.0.113.9")).unwrap();

        let index = SearchIndex::new();
        let first = index.sync(&store);
        assert!(first.rebuilt);
        assert_eq!(first.appended, 2);

        // No writes: the next sync is a no-op.
        assert_eq!(index.sync(&store), SyncSummary::default());

        // One update: exactly one event re-tokenized, nothing rebuilt.
        store.update(a, |e| e.add_tag(Tag::tlp_amber())).unwrap();
        let second = index.sync(&store);
        assert!(!second.rebuilt);
        assert_eq!(second.reindexed, 1);

        let hits = index.search(&Query::parse("tag:tlp:amber").unwrap());
        assert_eq!(ids(&hits), vec![a]);
        let hits = index.search(&Query::parse("value:203.0.113.9").unwrap());
        assert_eq!(ids(&hits), vec![b]);
    }

    #[test]
    fn updates_retokenize_out_of_old_postings() {
        let store = MispStore::new();
        let id = store.insert(event("a", "domain", "old.example")).unwrap();
        let index = SearchIndex::new();
        index.sync(&store);
        assert_eq!(
            ids(&index.search(&Query::parse("value:old").unwrap())),
            vec![id]
        );

        store
            .update(id, |e| {
                e.attributes[0].value = "new.example".into();
            })
            .unwrap();
        index.sync(&store);
        assert!(index.search(&Query::parse("value:old").unwrap()).is_empty());
        assert_eq!(
            ids(&index.search(&Query::parse("value:new").unwrap())),
            vec![id]
        );
    }

    #[test]
    fn boolean_and_range_queries_agree_with_the_oracle() {
        use crate::query::matches_event;

        let store = MispStore::new();
        let mut scored = event("scored", "domain", "hot.example");
        scored.add_tag(Tag::machine("cais", "decay-score", "4.5"));
        let scored_id = store.insert(scored).unwrap();
        let plain_id = store
            .insert(event("plain", "ip-dst", "203.0.113.9"))
            .unwrap();
        store.publish(plain_id).unwrap();

        let index = SearchIndex::new();
        index.sync(&store);

        for input in [
            "score>=4 AND NOT published:true",
            "type:ip-dst OR value:hot",
            "published:false",
            "contains:EXAMPLE",
            "date>=1970-01-01",
            "org:\"\"",
            "category:\"network activity\"",
        ] {
            let query = Query::parse(input).unwrap();
            let got = ids(&index.search(&query));
            let want: Vec<u64> = store
                .snapshot()
                .iter()
                .filter(|v| matches_event(&query, &v.event))
                .map(|v| v.event.id)
                .collect();
            assert_eq!(got, want, "query {input:?}");
        }
        assert_eq!(
            ids(&index.search(&Query::parse("score>=4").unwrap())),
            vec![scored_id]
        );
    }

    #[test]
    fn backend_contract_matches_linear_search() {
        let store = MispStore::new();
        store.insert(event("a", "domain", "evil.example")).unwrap();
        let b = store.insert(event("b", "domain", "good.example")).unwrap();
        store.publish(b).unwrap();

        let index = SearchIndex::new();
        let query = SearchQuery {
            published_only: true,
            ..SearchQuery::default()
        };
        let indexed = index.search_query(&store, &query);
        let linear = store.search_linear(&query);
        assert_eq!(ids(&indexed), ids(&linear));
        assert_eq!(
            indexed.iter().map(|v| v.version).collect::<Vec<_>>(),
            linear.iter().map(|v| v.version).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn metrics_flow() {
        let registry = Registry::new();
        let store = MispStore::new();
        store.insert(event("a", "domain", "evil.example")).unwrap();
        let index = SearchIndex::new();
        index.instrument(&registry);
        index.sync(&store);
        index.search(&Query::parse("value:evil").unwrap());
        assert!(index.search_str("(((").is_err());
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["search_queries_total"], 1);
        assert_eq!(snapshot.counters["search_hits_total"], 1);
        assert_eq!(snapshot.counters["search_parse_errors_total"], 1);
        assert_eq!(snapshot.counters["search_index_syncs_total"], 1);
        assert_eq!(snapshot.counters["search_index_rebuilds_total"], 1);
        assert_eq!(snapshot.gauges["search_index_events"], 1);
        assert_eq!(snapshot.histograms["search_query_nanos"].count, 1);
    }

    #[test]
    fn decay_tag_literals_match_the_decay_crate() {
        assert_eq!(
            crate::query::DECAY_SCORE_TAG,
            (
                cais_decay::DECAY_TAG_NAMESPACE,
                cais_decay::DECAY_SCORE_PREDICATE
            ),
        );
    }
}
