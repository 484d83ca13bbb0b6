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
//! - Every lowercased byte trigram of every attribute value is
//!   interned under a packed `u32` key and posts in the same postings,
//!   so `contains:` intersects its needle's trigram postings and checks
//!   only the surviving candidates exactly, instead of scanning every
//!   value.
//! - Timestamps and decayed scores live in dense columns plus sorted
//!   `(value, slot)` permutations, so a range predicate is one binary
//!   search plus O(matches) bit sets, never a full column walk. A sync
//!   that moved a few dates or scores merges just those slots back
//!   into the permutations.
//!
//! Incrementality rides the store's change feed exactly like the decay
//! engine's rescorer: [`SearchIndex::sync`] keeps the cursor of its
//! last pass and asks [`MispStore::changes`] for just the events
//! mutated since — each is re-tokenized in place (old postings edits
//! are `O(tokens)` bit flips for dense tokens, `O(log posting)` inserts
//! for sparse ones), so churn costs O(changed events). A reset (first
//! sync, or a cursor from another store) clears the index and the same
//! loop rebuilds it from every event.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cais_common::{SlotBitset, Timestamp};
use cais_misp::store::{ChangeCursor, MispStore, SearchBackend, SearchQuery, VersionedEvent};
use cais_misp::MispEvent;
use cais_telemetry::{Counter, Gauge, Histogram, Registry};
use parking_lot::{Mutex, RwLock};

use crate::query::{
    contains_ignore_ascii_case, decayed_score, sub_tokens, Cmp, Field, ParseError, Query,
};

/// Writes one token key into `buf` and returns it: a one-byte field
/// prefix (`t` type, `g` tag, `o` org, `c` category, `v` value), a
/// `\u{1}` separator so token namespaces can never collide with value
/// text, then the text, ASCII-lowercased when `lowercase` is set.
/// Building every key of an event in one reused buffer keeps
/// tokenizing allocation-free for tokens already interned.
fn write_key<'a>(buf: &'a mut String, prefix: char, text: &str, lowercase: bool) -> &'a str {
    buf.clear();
    buf.push(prefix);
    buf.push('\u{1}');
    let start = buf.len();
    buf.push_str(text);
    if lowercase {
        buf[start..].make_ascii_lowercase();
    }
    buf
}

/// A lowercased byte trigram packed into the low 24 bits of a `u32`.
fn trigram(window: &[u8]) -> u32 {
    window
        .iter()
        .fold(0, |key, &b| key << 8 | u32::from(b.to_ascii_lowercase()))
}

/// The distinct trigrams of an event's attribute values, sorted, into
/// `out`. Trigrams are taken per value, never across two, because a
/// substring match never spans values either.
fn event_trigrams(event: &MispEvent, out: &mut Vec<u32>) {
    out.clear();
    for attr in &event.attributes {
        out.extend(attr.value.as_bytes().windows(3).map(trigram));
    }
    out.sort_unstable();
    out.dedup();
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

    /// A sparse posting's length; dense postings, which were all once
    /// longer than any sparse one, sort last.
    fn sparse_len(&self) -> usize {
        match self {
            Posting::Sparse(ids) => ids.len(),
            Posting::Dense(_) => usize::MAX,
        }
    }

    /// `bits &= self`, without materializing a sparse posting.
    fn intersect_into(&self, bits: &mut SlotBitset) {
        match self {
            Posting::Sparse(ids) => {
                let mut kept = SlotBitset::new();
                for &id in ids.iter().filter(|&&id| bits.contains(id)) {
                    kept.set(id);
                }
                *bits = kept;
            }
            Posting::Dense(dense) => bits.intersect_with(dense),
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
    /// updated event O(its own tokens) instead of O(index). Trigrams
    /// are not kept here: an event's old trigrams are recomputed from
    /// `event` when it is re-indexed.
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
    /// Packed value trigram → interned id in the same id space.
    trigrams: HashMap<u32, u32>,
    /// Interned token or trigram id → that key's slot set.
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
    /// Slots whose date or score moved since the permutations were
    /// last brought up to date, at the end of the previous sync.
    moved: SlotBitset,
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
    /// by interned id. Every key is built in one buffer and looked up
    /// as `&str`; only a token seen for the first time allocates.
    fn tokenize(state: &mut IndexState, event: &MispEvent) -> Vec<u32> {
        let IndexState {
            tokens, postings, ..
        } = state;
        let mut ids = Vec::new();
        let mut post = |key: &str| {
            let id = match tokens.get(key) {
                Some(&id) => id,
                None => {
                    let id = postings.len() as u32;
                    tokens.insert(key.to_owned(), id);
                    postings.push(Posting::default());
                    id
                }
            };
            ids.push(id);
        };
        let mut key = String::new();
        post(write_key(&mut key, 'o', &event.org, true));
        for tag in &event.tags {
            post(write_key(&mut key, 'g', tag.name(), false));
        }
        for attr in &event.attributes {
            post(write_key(&mut key, 't', &attr.attr_type, false));
            post(write_key(&mut key, 'c', attr.category.name(), true));
            // Value tokens are the trimmed, lowercased value and its
            // alphanumeric runs, which lowercasing does not move.
            let trimmed = attr.value.trim();
            if !trimmed.is_empty() {
                for token in sub_tokens(trimmed) {
                    post(write_key(&mut key, 'v', token, true));
                }
                post(write_key(&mut key, 'v', trimmed, true));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.shrink_to_fit();
        ids
    }

    /// Moves `slot` into the postings of `event`'s value trigrams, out
    /// of those of `old` (the body it replaces) when there is one. A
    /// re-index that leaves every attribute value as it was — decay
    /// flips and score writes touch only tags — costs nothing here.
    fn post_trigrams(
        state: &mut IndexState,
        slot: u32,
        old: Option<&MispEvent>,
        event: &MispEvent,
    ) {
        let mut grams = Vec::new();
        if let Some(old) = old {
            let same_values = old.attributes.len() == event.attributes.len()
                && old
                    .attributes
                    .iter()
                    .zip(&event.attributes)
                    .all(|(a, b)| a.value == b.value);
            if same_values {
                return;
            }
            event_trigrams(old, &mut grams);
            for gram in &grams {
                let id = state.trigrams[gram];
                state.postings[id as usize].remove(slot);
            }
        }
        event_trigrams(event, &mut grams);
        let IndexState {
            trigrams, postings, ..
        } = state;
        for &gram in &grams {
            let id = *trigrams.entry(gram).or_insert_with(|| {
                postings.push(Posting::default());
                postings.len() as u32 - 1
            });
            postings[id as usize].add(slot);
        }
    }

    /// Brings the sorted range permutations up to date with the slots
    /// whose date or score moved in this sync: their old entries are
    /// dropped in one pass and their new ones merged back as a sorted
    /// delta. On a rebuild every slot moved, so the merge is one sort.
    /// Info-only churn, the common case, moves nothing.
    fn refresh_ranges(state: &mut IndexState) {
        let moved = std::mem::take(&mut state.moved);
        if moved.is_empty() {
            return;
        }
        let dates: Vec<(Timestamp, u32)> = moved
            .ones()
            .map(|slot| (state.dates[slot as usize], slot))
            .collect();
        merge_delta(&mut state.dates_sorted, &moved, dates, Ord::cmp);
        let scores: Vec<(f64, u32)> = moved
            .ones()
            .filter_map(|slot| {
                let score = state.scores[slot as usize].filter(|s| !s.is_nan());
                score.map(|s| (s, slot))
            })
            .collect();
        merge_delta(&mut state.scores_sorted, &moved, scores, |a, b| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
        });
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
                let old = Arc::clone(&state.slots[slot_id as usize].event);
                Self::post_trigrams(state, slot_id, Some(&old), &versioned.event);
                let date = versioned.event.date;
                if state.dates[slot_id as usize] != date {
                    state.dates[slot_id as usize] = date;
                    state.moved.set(slot_id);
                }
                let score = decayed_score(&versioned.event);
                if state.scores[slot_id as usize] != score {
                    state.scores[slot_id as usize] = score;
                    state.moved.set(slot_id);
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
                Self::post_trigrams(state, slot_id, None, &versioned.event);
                state.dates.push(versioned.event.date);
                state.scores.push(decayed_score(&versioned.event));
                state.moved.set(slot_id);
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

    /// `contains:needle`. A needle of three or more bytes can only
    /// occur in a value holding all of its trigrams, so the postings
    /// of those trigrams, intersected rarest first, give the candidates
    /// (none when a trigram was never posted); each is then checked
    /// exactly. Shorter needles have no trigram and scan every event.
    fn eval_contains(state: &IndexState, needle: &str) -> SlotBitset {
        let matches = |slot: u32| {
            state.slots[slot as usize]
                .event
                .attributes
                .iter()
                .any(|a| contains_ignore_ascii_case(&a.value, needle))
        };
        let mut out = SlotBitset::new();
        if needle.len() < 3 {
            for slot in (0..state.slots.len() as u32).filter(|&slot| matches(slot)) {
                out.set(slot);
            }
            return out;
        }
        let mut postings = Vec::new();
        for window in needle.as_bytes().windows(3) {
            match state.trigrams.get(&trigram(window)) {
                Some(&id) => postings.push(&state.postings[id as usize]),
                None => return out,
            }
        }
        postings.sort_by_key(|posting| posting.sparse_len());
        let mut candidates = postings[0].to_bitset();
        for posting in &postings[1..] {
            if candidates.is_empty() {
                break;
            }
            posting.intersect_into(&mut candidates);
        }
        for slot in candidates.ones().filter(|&slot| matches(slot)) {
            out.set(slot);
        }
        out
    }

    /// Compiles a query to a bitset over slots, bottom-up.
    fn eval(state: &IndexState, query: &Query) -> SlotBitset {
        match query {
            Query::All => state.universe.clone(),
            Query::Term { field, value } => {
                let mut buf = String::new();
                let key = match field {
                    Field::Type => write_key(&mut buf, 't', value, false),
                    Field::Category => write_key(&mut buf, 'c', value, true),
                    Field::Tag => write_key(&mut buf, 'g', value, false),
                    Field::Org => write_key(&mut buf, 'o', value, true),
                    Field::Value => {
                        let trimmed = value.trim();
                        if trimmed.is_empty() {
                            // The reference semantics: an empty value
                            // term matches nothing.
                            return SlotBitset::new();
                        }
                        write_key(&mut buf, 'v', trimmed, true)
                    }
                };
                match state.tokens.get(key) {
                    Some(&token) => state.postings[token as usize].to_bitset(),
                    None => SlotBitset::new(),
                }
            }
            Query::Contains(needle) => Self::eval_contains(state, needle),
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

/// Brings `sorted` up to date after the slots in `moved` changed key:
/// drops their old entries in one pass, then merges `delta` (their new
/// entries, in any order) in from the back, in place.
fn merge_delta<K: Copy>(
    sorted: &mut Vec<(K, u32)>,
    moved: &SlotBitset,
    mut delta: Vec<(K, u32)>,
    cmp: impl Fn(&(K, u32), &(K, u32)) -> Ordering,
) {
    sorted.retain(|&(_, slot)| !moved.contains(slot));
    delta.sort_unstable_by(&cmp);
    let (mut kept, mut added) = (sorted.len(), delta.len());
    sorted.extend_from_slice(&delta);
    for at in (0..sorted.len()).rev() {
        if added == 0 {
            break;
        }
        if kept > 0 && cmp(&sorted[kept - 1], &delta[added - 1]).is_gt() {
            kept -= 1;
            sorted[at] = sorted[kept];
        } else {
            added -= 1;
            sorted[at] = delta[added];
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
    fn contains_never_spans_two_values() {
        let store = MispStore::new();
        let mut two = event("two", "domain", "c2.evil.example");
        two.add_attribute(MispAttribute::new(
            "ip-dst",
            AttributeCategory::NetworkActivity,
            "203.0.113.9",
        ));
        let id = store.insert(two).unwrap();
        let index = SearchIndex::new();
        index.sync(&store);
        assert!(index.search(&Query::Contains("ple203".into())).is_empty());
        assert_eq!(ids(&index.search(&Query::Contains("PLE".into()))), vec![id]);
        assert_eq!(ids(&index.search(&Query::Contains("3.9".into()))), vec![id]);
    }

    #[test]
    fn value_edits_move_trigram_postings_and_tag_edits_keep_them() {
        let store = MispStore::new();
        let id = store.insert(event("a", "domain", "old.example")).unwrap();
        let index = SearchIndex::new();
        index.sync(&store);
        let posted = |gram: &[u8]| {
            let state = index.state.lock();
            state
                .trigrams
                .get(&trigram(gram))
                .map_or(0, |&p| state.postings[p as usize].to_bitset().count())
        };
        assert_eq!(posted(b"old"), 1);

        store.update(id, |e| e.add_tag(Tag::tlp_amber())).unwrap();
        index.sync(&store);
        assert_eq!(posted(b"old"), 1);

        store
            .update(id, |e| e.attributes[0].value = "NEW.example".into())
            .unwrap();
        index.sync(&store);
        assert_eq!(posted(b"old"), 0, "the replaced value's trigrams let go");
        assert_eq!(posted(b"new"), 1);
        assert_eq!(
            ids(&index.search(&Query::Contains("w.Ex".into()))),
            vec![id]
        );
    }

    #[test]
    fn merged_range_permutations_equal_a_full_sort() {
        let store = MispStore::new();
        for i in 0..64u64 {
            let mut e = event(&format!("e{i}"), "domain", "evil.example");
            e.date = Timestamp::from_unix_secs((i as i64 * 37) % 11);
            if i % 3 != 0 {
                e.add_tag(Tag::machine("cais", "decay-score", &format!("{}", i % 7)));
            }
            store.insert(e).unwrap();
        }
        let index = SearchIndex::new();
        index.sync(&store);
        // Four of 64 slots move and merge back. One loses its score,
        // one gains one, two move date and score.
        store
            .update(2, |e| {
                e.tags.retain(|t| t.predicate() != Some("decay-score"))
            })
            .unwrap();
        store
            .update(4, |e| e.add_tag(Tag::machine("cais", "decay-score", "2.5")))
            .unwrap();
        for id in [9, 50] {
            store
                .update(id, |e| {
                    e.date = Timestamp::from_unix_secs(5);
                    e.tags = vec![Tag::machine("cais", "decay-score", "NaN")];
                })
                .unwrap();
        }
        index.sync(&store);
        let state = index.state.lock();
        let mut dates = state.dates_sorted.clone();
        dates.sort_unstable();
        assert_eq!(state.dates_sorted, dates);
        let mut scores: Vec<(f64, u32)> = (0..)
            .zip(&state.scores)
            .filter_map(|(slot, s)| s.filter(|s| !s.is_nan()).map(|s| (s, slot)))
            .collect();
        scores.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(state.scores_sorted, scores);
        assert_eq!(state.dates_sorted.len(), 64);
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
