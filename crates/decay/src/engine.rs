//! The lifecycle engine: incremental rescoring and expiry sweeps.
//!
//! [`DecayEngine`] keeps a dense per-indicator entry `{base, anchor,
//! marked_expired}` and follows the store's change feed
//! ([`MispStore::changes`]): a pass asks the store which events moved
//! since the last pass, re-derives the taxonomy base and the cached
//! expiry tag only for those, then decays every tracked indicator in
//! one linear walk — no store lock, no hashmap probe, no tag parsing
//! for the unchanged majority. A sweep compares each fresh expiry with
//! the cached tag and touches the store only for the flips. The
//! from-scratch path ([`DecayEngine::score_from_scratch`]) re-derives
//! every base and serves both as the benchmark baseline and as the
//! property-test oracle: for any interleaving of sightings, churn and
//! sweeps the two must agree bit for bit.
//!
//! Time comes from an injected [`Clock`], so tests and benches drive a
//! [`VirtualClock`](cais_common::resilience::VirtualClock) while
//! production uses [`SystemClock`](cais_common::resilience::SystemClock).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use cais_common::resilience::{Clock, Sleeper, SystemClock};
use cais_common::time::MILLIS_PER_DAY;
use cais_common::{Timestamp, Uuid};
use cais_misp::{ChangeCursor, MispError, MispEvent, MispStore, Tag};
use cais_telemetry::{Counter, Gauge, Registry, Tracer};
use parking_lot::Mutex;

use crate::ledger::SightingLedger;
use crate::model::DecayModel;
use crate::taxonomy::BaseScorer;

/// Machine-tag predicate carrying the lifecycle state
/// (`cais:decay-state="expired"` / `"active"`).
pub const DECAY_STATE_PREDICATE: &str = "decay-state";
/// Machine-tag predicate carrying the last swept score
/// (`cais:decay-score="2.41"`).
pub const DECAY_SCORE_PREDICATE: &str = "decay-score";
/// Namespace of the lifecycle tags. Deliberately distinct from any
/// taxonomy profile namespace so sweep writes never perturb base
/// scores.
pub const DECAY_TAG_NAMESPACE: &str = "cais";

/// One event's decayed score as of a rescore pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RescoredEvent {
    /// Store id of the event.
    pub event_id: u64,
    /// Stable identity — what the ledger keys on.
    pub uuid: Uuid,
    /// Taxonomy base score (Equation 1 over the event's machine tags).
    pub base: f64,
    /// Base after decay at the pass's `now`.
    pub score: f64,
    /// Whether the score fell below the model threshold.
    pub expired: bool,
}

/// What one rescore pass did, for telemetry and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RescoreSummary {
    /// Events scored in total.
    pub scored: usize,
    /// Events whose version moved — full base re-derivation.
    pub rebased: usize,
    /// Events whose cached base was reused — lookup + multiply only.
    pub reused: usize,
    /// Events at or past expiry after this pass.
    pub expired: usize,
}

/// What one sweep did: the rescore plus the state flips it wrote back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// The rescore pass the sweep ran on.
    pub rescore: RescoreSummary,
    /// Events newly marked expired (tagged + unpublished).
    pub flipped_expired: usize,
    /// Previously expired events revived by fresh sightings
    /// (re-tagged + republished).
    pub flipped_active: usize,
}

/// One tracked indicator: everything the score pass needs, packed
/// densely so the steady-state rescore is a linear walk over this
/// vector — no store lock, no hashmap, no tag parsing.
#[derive(Debug, Clone, Copy)]
struct Entry {
    event_id: u64,
    uuid: Uuid,
    base: f64,
    /// The decay anchor: the last sighting if any, else the event
    /// date. Maintained incrementally — [`DecayEngine::record_sighting`]
    /// and rebase both rewrite it — so the score pass never touches
    /// the ledger.
    anchor: Timestamp,
    /// Whether the event carried `cais:decay-state="expired"` when it
    /// was last rebased. Every tag write bumps the event's version and
    /// so reaches the next pass through the change feed, which rebases
    /// the entry; after a pass's sync the bit is therefore the store's,
    /// and a sweep compares scores against it without a store lock.
    marked_expired: bool,
}

#[derive(Default)]
struct EngineState {
    /// Tracked indicators in ascending event-id order.
    entries: Vec<Entry>,
    by_id: HashMap<u64, usize>,
    by_uuid: HashMap<Uuid, usize>,
    ledger: SightingLedger,
    /// Where the last sync left the store's change feed; `None`
    /// before the first pass.
    cursor: Option<ChangeCursor>,
}

impl EngineState {
    fn rebuild_indexes(&mut self) {
        self.entries.sort_unstable_by_key(|e| e.event_id);
        self.by_id = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.event_id, i))
            .collect();
        self.by_uuid = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.uuid, i))
            .collect();
    }
}

struct Metrics {
    rescores: Counter,
    sweeps: Counter,
    rebased: Counter,
    reused: Counter,
    expired_flips: Counter,
    revived_flips: Counter,
    sightings: Counter,
    tracked: Gauge,
    expired_now: Gauge,
}

/// The lifecycle engine. Cheap to share behind an `Arc`; all state is
/// behind one mutex, and rescore passes never hold the store's write
/// lock (they read a snapshot-consistent walk).
pub struct DecayEngine {
    model: DecayModel,
    scorer: BaseScorer,
    clock: Arc<dyn Clock>,
    state: Mutex<EngineState>,
    metrics: Mutex<Option<Metrics>>,
    tracer: Mutex<Option<Tracer>>,
}

impl DecayEngine {
    /// An engine over an explicit model, scorer and clock.
    pub fn new(model: DecayModel, scorer: BaseScorer, clock: Arc<dyn Clock>) -> Self {
        DecayEngine {
            model,
            scorer,
            clock,
            state: Mutex::new(EngineState::default()),
            metrics: Mutex::new(None),
            tracer: Mutex::new(None),
        }
    }

    /// Attaches a causal tracer: every sweep roots a `decay` span
    /// recording how many events it rescored and flipped.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.tracer.lock() = Some(tracer.clone());
    }

    /// The production configuration: wall-clock time.
    pub fn with_system_clock(model: DecayModel, scorer: BaseScorer) -> Self {
        DecayEngine::new(model, scorer, Arc::new(SystemClock))
    }

    /// The model in force.
    pub fn model(&self) -> DecayModel {
        self.model
    }

    /// Registers `decay_*` counters and gauges.
    pub fn instrument(&self, registry: &Registry) {
        *self.metrics.lock() = Some(Metrics {
            rescores: registry.counter("decay_rescores_total"),
            sweeps: registry.counter("decay_sweeps_total"),
            rebased: registry.counter("decay_events_rebased_total"),
            reused: registry.counter("decay_events_reused_total"),
            expired_flips: registry.counter("decay_expired_flips_total"),
            revived_flips: registry.counter("decay_revived_flips_total"),
            sightings: registry.counter("decay_sightings_recorded_total"),
            tracked: registry.gauge("decay_tracked_events"),
            expired_now: registry.gauge("decay_expired_events"),
        });
    }

    /// Records a sighting: the decay clock for `uuid` restarts at
    /// `seen_at` (anchors only move forward).
    pub fn record_sighting(&self, uuid: Uuid, seen_at: Timestamp) {
        let mut state = self.state.lock();
        state.ledger.record(uuid, seen_at);
        if let Some(&idx) = state.by_uuid.get(&uuid) {
            let anchor = state.ledger.last_seen(&uuid).expect("just recorded");
            state.entries[idx].anchor = anchor;
        }
        drop(state);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.sightings.inc();
        }
    }

    /// Total sightings recorded for `uuid`.
    pub fn sighting_count(&self, uuid: &Uuid) -> u64 {
        self.state.lock().ledger.count(uuid)
    }

    /// The decay anchor: last sighting if any, else the event date.
    fn anchor(ledger: &SightingLedger, event: &MispEvent) -> Timestamp {
        ledger.last_seen(&event.uuid).unwrap_or(event.date)
    }

    fn decayed(&self, base: f64, anchor: Timestamp, now: Timestamp) -> f64 {
        let elapsed_days = now.millis_since(anchor).max(0) as f64 / MILLIS_PER_DAY as f64;
        self.model.score_at(base, elapsed_days)
    }

    /// Synchronizes the tracked entries with the store's change feed,
    /// re-deriving bases only for the events it reports. A reset (the
    /// first pass, or a pass over another store than the last) drops
    /// every entry and the sightings of events the store does not hold.
    /// Returns how many bases were re-derived.
    fn sync(&self, state: &mut EngineState, store: &MispStore) -> usize {
        let batch = store.changes(state.cursor);
        if batch.reset {
            state.entries.clear();
            state.by_id.clear();
        }
        // The ids are distinct, so each is visited once: updates rewrite
        // in place via `by_id`, new events append and the indexes are
        // rebuilt once afterwards.
        let mut appended = false;
        let mut rebased = 0;
        for id in batch.ids {
            let Some(event) = store.get_arc(id) else {
                continue;
            };
            let entry = Entry {
                event_id: id,
                uuid: event.uuid,
                base: self.scorer.base_score(&event),
                anchor: DecayEngine::anchor(&state.ledger, &event),
                marked_expired: is_marked_expired(&event),
            };
            rebased += 1;
            if let Some(&idx) = state.by_id.get(&id) {
                state.entries[idx] = entry;
            } else {
                state.entries.push(entry);
                appended = true;
            }
        }
        if appended || batch.reset {
            state.rebuild_indexes();
        }
        if batch.reset {
            let by_uuid = std::mem::take(&mut state.by_uuid);
            state.ledger.retain(|uuid| by_uuid.contains_key(uuid));
            state.by_uuid = by_uuid;
        }
        state.cursor = Some(batch.cursor);
        rebased
    }

    /// One incremental pass: syncs the entries with the store's change
    /// feed, then decays every entry in one dense walk under the engine
    /// lock, handing each to `visit` with its score and expiry.
    fn pass(&self, store: &MispStore, mut visit: impl FnMut(&Entry, f64, bool)) -> RescoreSummary {
        let now = self.clock.now();
        let mut state = self.state.lock();
        let mut summary = RescoreSummary {
            rebased: self.sync(&mut state, store),
            ..RescoreSummary::default()
        };
        summary.scored = state.entries.len();
        summary.reused = summary.scored.saturating_sub(summary.rebased);
        for entry in &state.entries {
            let score = self.decayed(entry.base, entry.anchor, now);
            let expired = self.model.is_expired(score);
            if expired {
                summary.expired += 1;
            }
            visit(entry, score, expired);
        }
        drop(state);

        if let Some(m) = self.metrics.lock().as_ref() {
            m.rescores.inc();
            m.rebased.add(summary.rebased as u64);
            m.reused.add(summary.reused as u64);
            m.tracked.set(summary.scored as i64);
            m.expired_now.set(summary.expired as i64);
        }
        summary
    }

    /// Incremental rescore: follows the store's change feed to re-derive
    /// bases only for events whose version moved since the previous
    /// pass, then scores every tracked indicator in one dense walk.
    /// Results come back in store-id order.
    pub fn rescore(&self, store: &MispStore) -> (Vec<RescoredEvent>, RescoreSummary) {
        // A capacity hint: the pass may append a few arrivals.
        let mut out = Vec::with_capacity(self.state.lock().entries.len());
        let summary = self.pass(store, |entry, score, expired| {
            out.push(RescoredEvent {
                event_id: entry.event_id,
                uuid: entry.uuid,
                base: entry.base,
                score,
                expired,
            });
        });
        (out, summary)
    }

    /// From-scratch rescore: derives every base from the event's tags,
    /// ignoring (and not touching) the cached entries. Shares the
    /// ledger and clock with the incremental path, so for the same
    /// store state the two paths must agree exactly — this is the
    /// benchmark baseline and the property-test oracle.
    pub fn score_from_scratch(&self, store: &MispStore) -> Vec<RescoredEvent> {
        let now = self.clock.now();
        let state = self.state.lock();
        let mut out = Vec::new();
        store.for_each_versioned(|event, _version| {
            let base = self.scorer.base_score(event);
            let score = self.decayed(base, DecayEngine::anchor(&state.ledger, event), now);
            out.push(RescoredEvent {
                event_id: event.id,
                uuid: event.uuid,
                base,
                score,
                expired: self.model.is_expired(score),
            });
        });
        out
    }

    /// One expiry sweep: an incremental pass, then persist state flips
    /// back into the store. Newly expired events get
    /// `cais:decay-state="expired"` + `cais:decay-score` tags and are
    /// unpublished — the store's version bump makes every downstream
    /// byte cache (share exporter, TAXII pages) drop the stale copy.
    /// Previously expired events whose score recovered (a sighting
    /// reset their clock) are re-tagged `active` and republished.
    /// A flip is a fresh expiry that differs from the entry's cached
    /// expiry bit, so the walk reads no event and takes no store lock;
    /// only the flips are written, and sweep cost tracks the number of
    /// *flips* beyond the sync and the one dense walk.
    pub fn sweep(&self, store: &MispStore) -> Result<SweepSummary, MispError> {
        let mut span = self
            .tracer
            .lock()
            .as_ref()
            .map(|t| t.root("decay", "decay_sweep"));
        let mut flips = Vec::new();
        let rescore = self.pass(store, |entry, score, expired| {
            if expired != entry.marked_expired {
                flips.push((entry.event_id, score, expired));
            }
        });
        let mut summary = SweepSummary {
            rescore,
            ..SweepSummary::default()
        };

        for (event_id, score, to_expired) in flips {
            store.update(event_id, move |event| {
                event.tags.retain(|tag| {
                    !(tag.namespace() == Some(DECAY_TAG_NAMESPACE)
                        && matches!(
                            tag.predicate(),
                            Some(DECAY_STATE_PREDICATE) | Some(DECAY_SCORE_PREDICATE)
                        ))
                });
                let state = if to_expired { "expired" } else { "active" };
                event.add_tag(Tag::machine(
                    DECAY_TAG_NAMESPACE,
                    DECAY_STATE_PREDICATE,
                    state,
                ));
                event.add_tag(Tag::machine(
                    DECAY_TAG_NAMESPACE,
                    DECAY_SCORE_PREDICATE,
                    &format!("{score:.4}"),
                ));
                event.published = !to_expired;
            })?;
            if to_expired {
                summary.flipped_expired += 1;
            } else {
                summary.flipped_active += 1;
            }
        }

        if let Some(m) = self.metrics.lock().as_ref() {
            m.sweeps.inc();
            m.expired_flips.add(summary.flipped_expired as u64);
            m.revived_flips.add(summary.flipped_active as u64);
        }
        if let Some(span) = span.as_mut() {
            span.field("rescored", summary.rescore.scored);
            span.field("flipped_expired", summary.flipped_expired);
            span.field("flipped_active", summary.flipped_active);
        }
        Ok(summary)
    }

    /// Runs up to `rounds` sweeps, pausing `interval` between them via
    /// the injected [`Sleeper`]. Stops early when the sleeper reports
    /// interruption (a [`StopToken`](cais_common::resilience::StopToken)
    /// fired) or a sweep fails. Returns the completed sweep summaries.
    pub fn sweep_loop(
        &self,
        store: &MispStore,
        interval: Duration,
        sleeper: &impl Sleeper,
        rounds: usize,
    ) -> Result<Vec<SweepSummary>, MispError> {
        let mut summaries = Vec::new();
        for round in 0..rounds {
            summaries.push(self.sweep(store)?);
            if round + 1 < rounds && !sleeper.sleep(interval) {
                break;
            }
        }
        Ok(summaries)
    }
}

fn is_marked_expired(event: &MispEvent) -> bool {
    event.tags.iter().any(|tag| {
        tag.namespace() == Some(DECAY_TAG_NAMESPACE)
            && tag.predicate() == Some(DECAY_STATE_PREDICATE)
            && tag.value() == Some("expired")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_common::resilience::{RecordingSleeper, VirtualClock};

    fn engine_with_clock() -> (DecayEngine, VirtualClock) {
        let clock = VirtualClock::starting_at(Timestamp::from_unix_millis(40 * MILLIS_PER_DAY));
        let engine = DecayEngine::new(
            DecayModel::new(30.0, 1.0).with_threshold(1.0),
            BaseScorer::cais_default(),
            Arc::new(clock.clone()),
        );
        (engine, clock)
    }

    fn store_with_events(n: u64, clock: &VirtualClock) -> MispStore {
        let store = MispStore::new();
        for i in 0..n {
            let mut event = MispEvent::new(format!("decay event {i}"));
            event.date = clock.now();
            event.add_tag(Tag::machine("cais-conf", "reliability", "4"));
            event.add_tag(Tag::machine("cais-conf", "freshness", "4"));
            event.add_tag(Tag::machine("cais-conf", "corroboration", "4"));
            let id = store.insert(event).expect("insert");
            store.publish(id).expect("publish");
        }
        store
    }

    #[test]
    fn second_pass_reuses_every_unchanged_base() {
        let (engine, clock) = engine_with_clock();
        let store = store_with_events(10, &clock);

        let (_, first) = engine.rescore(&store);
        assert_eq!(first.rebased, 10);
        assert_eq!(first.reused, 0);

        store
            .update(1, |event| event.info.push_str(" (edited)"))
            .expect("update");
        let (_, second) = engine.rescore(&store);
        assert_eq!(second.rebased, 1, "only the churned event re-derives");
        assert_eq!(second.reused, 9);
    }

    #[test]
    fn sightings_reset_the_decay_clock() {
        let (engine, clock) = engine_with_clock();
        let store = store_with_events(2, &clock);
        let seen = store.get(1).expect("event").uuid;

        clock.advance_days(15); // τ=30, δ=1 → half the base gone
        let (scores, _) = engine.rescore(&store);
        let half: Vec<f64> = scores.iter().map(|s| s.score).collect();
        assert!((half[0] - scores[0].base / 2.0).abs() < 1e-9);

        engine.record_sighting(seen, clock.now());
        let (scores, _) = engine.rescore(&store);
        assert_eq!(scores[0].score, scores[0].base, "sighted event is fresh");
        assert!((scores[1].score - scores[1].base / 2.0).abs() < 1e-9);
        assert_eq!(engine.sighting_count(&seen), 1);
    }

    #[test]
    fn sweep_flips_expire_and_revive_with_version_bumps() {
        let (engine, clock) = engine_with_clock();
        let store = store_with_events(1, &clock);
        let uuid = store.get(1).expect("event").uuid;

        // Past τ the event expires: unpublished, tagged, version moves.
        clock.advance_days(31);
        let summary = engine.sweep(&store).expect("sweep");
        assert_eq!(summary.flipped_expired, 1);
        let event = store.get(1).expect("event");
        assert!(!event.published);
        assert!(is_marked_expired(&event));
        let after_expire = store.event_version(1).expect("version");
        assert!(after_expire > 0);

        // A repeat sweep with nothing changed writes nothing. Its
        // rescore re-derives the one event the flip above wrote (the
        // change feed reports it), and because `cais:decay-*` tags feed
        // no taxonomy profile the base comes back unchanged.
        let idle = engine.sweep(&store).expect("sweep");
        assert_eq!(idle.flipped_expired + idle.flipped_active, 0);
        assert_eq!(store.event_version(1), Some(after_expire));
        assert_eq!(idle.rescore.rebased, 1);

        // With no writes at all, the next pass reuses everything.
        let (_, quiet) = engine.rescore(&store);
        assert_eq!(quiet.rebased, 0);
        assert_eq!(quiet.reused, 1);

        // A fresh sighting revives it: republished, tagged active.
        engine.record_sighting(uuid, clock.now());
        let revived = engine.sweep(&store).expect("sweep");
        assert_eq!(revived.flipped_active, 1);
        let event = store.get(1).expect("event");
        assert!(event.published);
        assert!(!is_marked_expired(&event));
        assert!(store.event_version(1).expect("version") > after_expire);
    }

    #[test]
    fn incremental_matches_from_scratch_after_churn() {
        let (engine, clock) = engine_with_clock();
        let store = store_with_events(20, &clock);
        engine.rescore(&store);

        clock.advance_days(12);
        store
            .update(3, |event| {
                event.tags.retain(|t| t.predicate() != Some("reliability"));
            })
            .expect("update");
        engine.record_sighting(store.get(7).expect("event").uuid, clock.now());

        let (incremental, summary) = engine.rescore(&store);
        let scratch = engine.score_from_scratch(&store);
        assert_eq!(incremental, scratch);
        assert!(summary.reused > 0, "most events must take the cheap path");
    }

    #[test]
    fn rescore_forgets_events_that_left_the_store() {
        let (engine, clock) = engine_with_clock();
        let store = store_with_events(3, &clock);
        let (_, first) = engine.rescore(&store);
        assert_eq!(first.scored, 3);

        // Another store *ahead* of the one last synced: its log
        // positions say nothing about what the engine derived, so the
        // pass resets instead of keeping the first store's events.
        let busier = store_with_events(3, &clock);
        busier
            .update(3, |event| event.info.push('!'))
            .expect("update");
        assert!(busier.generation() > store.generation());
        let (scores, moved) = engine.rescore(&busier);
        assert_eq!(scores, engine.score_from_scratch(&busier));
        assert_eq!(moved.rebased, 3);

        // A fresh store with two of the three events gone.
        let survivor = busier.get(2).expect("event");
        let rebuilt = MispStore::new();
        rebuilt.insert(survivor).expect("insert");
        let (scores, _) = engine.rescore(&rebuilt);
        assert_eq!(scores.len(), 1);
        // Internal maps shrank with the store.
        assert_eq!(engine.state.lock().entries.len(), 1);
    }

    #[test]
    fn sweep_loop_honours_the_sleeper() {
        let (engine, clock) = engine_with_clock();
        let store = store_with_events(2, &clock);
        let sleeper = RecordingSleeper::new();
        let summaries = engine
            .sweep_loop(&store, Duration::from_secs(60), &sleeper, 3)
            .expect("loop");
        assert_eq!(summaries.len(), 3);
        assert_eq!(sleeper.naps().len(), 2, "no sleep after the last round");
    }

    #[test]
    fn instrumented_engine_reports_decay_metrics() {
        let (engine, clock) = engine_with_clock();
        let registry = Registry::new();
        engine.instrument(&registry);
        let store = store_with_events(4, &clock);
        clock.advance_days(31);
        engine.sweep(&store).expect("sweep");

        let snapshot = registry.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or_default();
        let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or_default();
        assert_eq!(counter("decay_sweeps_total"), 1);
        assert_eq!(counter("decay_rescores_total"), 1);
        assert_eq!(counter("decay_events_rebased_total"), 4);
        assert_eq!(counter("decay_expired_flips_total"), 4);
        assert_eq!(gauge("decay_tracked_events"), 4);
        assert_eq!(gauge("decay_expired_events"), 4);
    }
}
